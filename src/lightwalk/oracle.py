"""Brute-force numeric evolution of momentum blocks.

Fixed-step classical RK4 on the 2x2 block equation, written exactly as the
coupled first-order system (bare kinetic phases on the diagonal, minus half
the coupling off-diagonal). This is the independent cross-check for the
dressed analytic solution; amplitudes are never renormalized, so norm
drift stays visible as a convergence diagnostic.
"""

from __future__ import annotations

import numpy as np

from .dynamics import LightField, bare_frequencies, block_detuning
from .errors import DomainError, check_time

# resolution bounds for the fastest time scales present in a block
MAX_RABI_STEP = 0.01  # rabi * dt
MAX_SPLIT_STEP = 0.02  # effective Rabi frequency * dt
MAX_STEPS = 5_000_000  # full RK4 steps per call


def block_hamiltonian(p, field: LightField, mass_kg: float) -> np.ndarray:
    """2x2 frequency matrices (rad/s) of the blocks at momenta p, shape (..., 2, 2)."""
    w_ground, w_excited = bare_frequencies(p, field, mass_kg)
    coupling = np.full(np.shape(w_ground), -0.5 * field.rabi)
    rows = [np.stack([w_ground, coupling], axis=-1), np.stack([coupling, w_excited], axis=-1)]
    return np.stack(rows, axis=-2).astype(complex)


def rk4_propagate(matrix, amplitudes, t, dt) -> np.ndarray:
    """Integrate i d/dt y = matrix y over time t with classical RK4.

    Shapes broadcast: ``matrix`` is (..., 2, 2), ``amplitudes`` (..., 2),
    and ``t``/``dt`` scalars or (...)-shaped, so a batch of independent
    blocks integrates in lockstep. ``t`` must be finite and non-negative,
    ``dt`` finite and positive, and ``t`` need at most ``MAX_STEPS`` full steps.
    The final partial step is shortened so each end time is hit exactly.
    For a constant matrix one RK4 step of size h is exactly
    ``y <- R(h A) y`` with ``A = -i matrix`` and the stability polynomial
    ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``, so the n full steps are
    applied as ``R(dt A)^n`` by binary exponentiation (per-element n),
    followed by one remainder step.
    """
    rhs = -1j * np.asarray(matrix, dtype=complex)
    t = check_time(t)
    dt = np.asarray(dt, dtype=float)
    if not np.all((0.0 < dt) & (dt < np.inf)):
        raise DomainError(f"dt must be finite and positive, got {dt}")
    full = np.floor(t / dt + 1e-9)
    n_steps = int(full.max())
    if n_steps > MAX_STEPS:
        raise DomainError(f"{n_steps} steps exceed the configured maximum {MAX_STEPS}")
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


def evolve_block_numeric(ground0, excited0, p, field: LightField, mass_kg: float, t, dt):
    """RK4 amplitudes of momentum blocks after time t >= 0 (the oracle path).

    Takes the arguments of :func:`lightwalk.dynamics.propagate` plus the
    fixed step ``dt`` and broadcasts the same way (``dt`` too), so the two
    are interchangeable in every comparison. Raises :class:`DomainError`
    when a step does not resolve the coupling or a block's effective Rabi
    frequency, and (from :func:`rk4_propagate`) when ``t`` or ``dt`` is out of
    its domain or ``t`` needs more than ``MAX_STEPS`` steps.
    """
    dt = np.asarray(dt, dtype=float)
    rabi_step = field.rabi * dt
    if np.any(rabi_step > MAX_RABI_STEP * (1.0 + 1e-12)):
        raise DomainError(f"rabi*dt = {np.max(rabi_step):.3g} exceeds {MAX_RABI_STEP}")
    split_step = np.hypot(block_detuning(p, field, mass_kg), field.rabi) * dt
    if np.any(split_step > MAX_SPLIT_STEP * (1.0 + 1e-12)):
        raise DomainError(
            f"effective Rabi frequency * dt = {np.max(split_step):.3g} exceeds {MAX_SPLIT_STEP}"
        )
    y0 = np.stack(np.broadcast_arrays(ground0, excited0), axis=-1)
    y = rk4_propagate(block_hamiltonian(p, field, mass_kg), y0, t, dt)
    return y[..., 0], y[..., 1]
