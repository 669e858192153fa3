"""Coherent motion of a two-level atom in a traveling light wave.

One-photon exchange couples the bare states |0,p> and |1,p+hbar*k| in
closed two-dimensional momentum blocks, so the dynamics factorizes over
momentum. Each block is solved exactly by dressing it: with the block
shift d (detuning + Doppler + recoil) and coupling strength W, the
amplitudes rotate at the effective Rabi frequency sqrt(d^2 + W^2) under a
common phase set by the block's frequency trace. Gaussian wavepackets,
their momentum/position expectation values, the dressed band structure
and the strong-coupling closed forms for the light-induced drift all
live here.

All quantities are SI; the only physical constant used is hbar, shared
by both constant sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Species
from .constants import HBAR, PAPER_CONSTANTS, PhysicalConstants, mass_to_si, wavenumber
from .errors import DomainError, GridCoverageError

_NORM_TOL = 1e-12
# simulate refuses runs whose largest phase S t_max carries a rounding error
# above this (rad): the 9 printed digits of a population would then move
_PHASE_TOL = 1e-9
# simulate evaluates time rows in chunks whose (rows x grid points) tables
# hold about this many doubles, so they stay in cache at any run length
_CHUNK_DOUBLES = 1 << 14


@dataclass(frozen=True)
class LightField:
    """Traveling wave driving the transition.

    ``wavenumber`` is signed: its sign is the propagation direction along x.
    ``rabi`` is the coupling strength in rad/s (real and non-negative),
    ``detuning`` the light frequency offset from the bare transition in rad/s.
    The coupling may alternatively be derived from a dipole moment and a
    field amplitude via :meth:`from_dipole`.
    """

    wavelength: float
    wavenumber: float
    rabi: float
    detuning: float
    dipole_moment: float | None = None
    field_amplitude: float | None = None

    def __post_init__(self) -> None:
        if not self.wavelength > 0:
            raise DomainError(f"wavelength must be positive, got {self.wavelength}")
        if not (math.isfinite(self.rabi) and self.rabi >= 0):
            raise DomainError(f"rabi must be finite and non-negative, got {self.rabi}")
        if not math.isfinite(self.detuning):
            raise DomainError(f"detuning must be finite, got {self.detuning}")
        expected = 2.0 * math.pi / self.wavelength
        if not math.isclose(abs(self.wavenumber), expected, rel_tol=1e-12):
            raise DomainError("|wavenumber| must equal 2 pi / wavelength")
        if self.dipole_moment is not None and self.field_amplitude is not None:
            derived = abs(self.dipole_moment) * self.field_amplitude / HBAR
            if not math.isclose(self.rabi, derived, rel_tol=1e-9):
                raise DomainError("rabi inconsistent with dipole moment and field amplitude")

    @classmethod
    def from_wavelength(
        cls,
        wavelength: float,
        rabi: float = 1.0e6,
        detuning: float = 0.0,
        direction: int = 1,
    ) -> "LightField":
        if direction not in (1, -1):
            raise DomainError("direction must be +1 or -1")
        return cls(
            wavelength=wavelength,
            wavenumber=direction * wavenumber(wavelength),
            rabi=rabi,
            detuning=detuning,
        )

    @classmethod
    def from_dipole(
        cls,
        wavelength: float,
        dipole_moment: float,
        field_amplitude: float,
        detuning: float = 0.0,
        direction: int = 1,
    ) -> "LightField":
        if field_amplitude < 0:
            raise DomainError("field amplitude must be non-negative")
        rabi = abs(dipole_moment) * field_amplitude / HBAR
        if direction not in (1, -1):
            raise DomainError("direction must be +1 or -1")
        return cls(
            wavelength=wavelength,
            wavenumber=direction * wavenumber(wavelength),
            rabi=rabi,
            detuning=detuning,
            dipole_moment=dipole_moment,
            field_amplitude=field_amplitude,
        )

    @property
    def recoil_momentum(self) -> float:
        """Signed photon momentum hbar*k in kg m/s."""
        return HBAR * self.wavenumber

    @property
    def period(self) -> float:
        """Rabi period 2 pi / rabi; infinite for an uncoupled field."""
        return 2.0 * math.pi / self.rabi if self.rabi > 0 else math.inf


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian initial condition in momentum space.

    Amplitudes go as exp(-(p - center)^2 / (2 width^2)) on both internal
    states, weighted by the complex pair (ground_amp, excited_amp) with
    |ground_amp|^2 + |excited_amp|^2 = 1.
    """

    center_momentum: float
    momentum_width: float
    ground_amp: complex = 1.0 + 0.0j
    excited_amp: complex = 0.0 + 0.0j
    initial_position: float = 0.0

    def __post_init__(self) -> None:
        if not self.momentum_width > 0:
            raise DomainError(f"momentum width must be positive, got {self.momentum_width}")
        if not math.isfinite(self.initial_position):
            raise DomainError(f"initial position must be finite, got {self.initial_position}")
        total = abs(self.ground_amp) ** 2 + abs(self.excited_amp) ** 2
        if abs(total - 1.0) > _NORM_TOL:
            raise DomainError(f"internal amplitudes must be normalized, got norm {total}")

    @property
    def population_difference(self) -> float:
        """|ground_amp|^2 - |excited_amp|^2, the drift prefactor."""
        return abs(self.ground_amp) ** 2 - abs(self.excited_amp) ** 2


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform grid discretizing the momentum integral."""

    p_min: float
    p_max: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise DomainError("grid needs at least 2 points")
        if not self.p_max > self.p_min:
            raise DomainError("p_max must exceed p_min")

    @property
    def spacing(self) -> float:
        return (self.p_max - self.p_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_points)

    @classmethod
    def for_packet(
        cls, spec: WavepacketSpec, half_span: float = 6.0, n_points: int = 4096
    ) -> "MomentumGrid":
        """Grid centered on the packet, default +-6 widths at 4096 points."""
        span = half_span * spec.momentum_width
        return cls(spec.center_momentum - span, spec.center_momentum + span, n_points)


@dataclass(frozen=True)
class BlockAmplitudes:
    """Amplitude pair of one momentum block.

    ``ground`` multiplies |0,p>, ``excited`` multiplies |1,p+hbar*k>; the
    excited component therefore carries one photon recoil of momentum.
    """

    momentum: float
    ground: complex
    excited: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.ground) ** 2 + abs(self.excited) ** 2


@dataclass(frozen=True)
class QuantumState:
    """Wavepacket on a momentum grid at one instant.

    ``ground[i]`` is the amplitude at momentum ``p_i``; ``excited[i]`` the
    amplitude at ``p_i + hbar*k``. Arrays are never mutated.
    """

    grid: MomentumGrid
    ground: np.ndarray
    excited: np.ndarray
    mass_kg: float
    field: LightField

    def norm(self) -> float:
        dp = self.grid.spacing
        # np.sum is pairwise, so the reduction is order-stable
        return float((np.abs(self.ground) ** 2 + np.abs(self.excited) ** 2).sum() * dp)

    def excited_population(self) -> float:
        return float((np.abs(self.excited) ** 2).sum() * self.grid.spacing)


@dataclass(frozen=True)
class Trajectory:
    """Observables of a simulated wavepacket, aligned with ``times``."""

    times: np.ndarray
    mean_momentum: np.ndarray
    mean_velocity: np.ndarray
    mean_position: np.ndarray
    norm: np.ndarray
    excited_population: np.ndarray


def kinetic_frequency(p, mass_kg: float):
    """Free kinetic phase rate p^2 / (2 M hbar) in rad/s."""
    if not mass_kg > 0:
        raise DomainError(f"mass must be positive, got {mass_kg}")
    return p * p / (2.0 * mass_kg * HBAR)


def block_detuning(p, field: LightField, mass_kg: float):
    """Shift of one momentum block: detuning + Doppler + photon recoil.

    Equals detuning + p*k/M + hbar*k^2/(2M), i.e. the splitting of the
    block's two bare frequencies. Accepts scalar or array p.
    """
    if not mass_kg > 0:
        raise DomainError(f"mass must be positive, got {mass_kg}")
    k = field.wavenumber
    return field.detuning + p * k / mass_kg + HBAR * k * k / (2.0 * mass_kg)


def effective_rabi(shift, rabi):
    """Dressed splitting sqrt(shift^2 + rabi^2) of one block."""
    return np.hypot(shift, rabi)


def dressed_frequencies(p, field: LightField, mass_kg: float):
    """Dressed eigenfrequency pair (low, high) of the block at momentum p.

    Their sum is the block's frequency trace, their difference the
    effective Rabi frequency. Accepts scalar or array p.
    """
    w_ground = kinetic_frequency(p, mass_kg)
    w_excited = field.detuning + kinetic_frequency(p + field.recoil_momentum, mass_kg)
    trace = w_ground + w_excited
    split = effective_rabi(w_excited - w_ground, field.rabi)
    return 0.5 * (trace - split), 0.5 * (trace + split)


@dataclass(frozen=True)
class BandStructure:
    """Dressed vs bare frequency branches sampled over a momentum grid."""

    p: np.ndarray
    dressed_low: np.ndarray
    dressed_high: np.ndarray
    bare_ground: np.ndarray
    bare_excited: np.ndarray


def band_structure(grid: MomentumGrid, field: LightField, mass_kg: float) -> BandStructure:
    """Sample dressed and bare branches over the grid (plot-ready)."""
    p = grid.points()
    low, high = dressed_frequencies(p, field, mass_kg)
    bare_ground = kinetic_frequency(p, mass_kg)
    bare_excited = field.detuning + kinetic_frequency(p + field.recoil_momentum, mass_kg)
    return BandStructure(p, low, high, bare_ground, bare_excited)


def propagate(ground0, excited0, p, field: LightField, mass_kg: float, t):
    """Exact amplitudes of momentum blocks after time t >= 0.

    ``ground0`` multiplies |0,p>, ``excited0`` |1,p+hbar*k>; all of
    ``ground0``, ``excited0``, ``p`` and ``t`` broadcast, so a scalar call
    is the 0-d case. Each block rotates at its effective Rabi frequency
    under the common phase of its frequency trace, so its norm is conserved
    identically. Blocks with vanishing effective Rabi frequency reduce to
    that pure common phase (both bare frequencies coincide there), which is
    the limit the safe divisions below implement.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError(f"time must be non-negative, got {t.min()}")
    shift = block_detuning(p, field, mass_kg)
    split = effective_rabi(shift, field.rabi)
    trace = 2.0 * kinetic_frequency(p, mass_kg) + shift
    half = 0.5 * split * t
    cos_h, sin_h = np.cos(half), np.sin(half)
    safe = np.where(split > 0.0, split, 1.0)
    mix_shift = np.where(split > 0.0, shift / safe, 0.0) * sin_h
    mix_coupling = np.where(split > 0.0, field.rabi / safe, 0.0) * sin_h
    phase = np.exp(-0.5j * trace * t)
    ground = phase * ((cos_h + 1j * mix_shift) * ground0 + 1j * mix_coupling * excited0)
    excited = phase * (1j * mix_coupling * ground0 + (cos_h - 1j * mix_shift) * excited0)
    return ground, excited


def init_gaussian(
    spec: WavepacketSpec, grid: MomentumGrid, field: LightField, mass_kg: float
) -> QuantumState:
    """Discretize the Gaussian packet on the grid and renormalize.

    Raises :class:`GridCoverageError` when the grid truncates more than
    1e-6 of the packet's norm (grids should span the center +-5 widths).
    """
    if not mass_kg > 0:
        raise DomainError(f"mass must be positive, got {mass_kg}")
    pc, width = spec.center_momentum, spec.momentum_width
    tail = 0.5 * (
        math.erfc((grid.p_max - pc) / width) + math.erfc((pc - grid.p_min) / width)
    )
    if tail > 1e-6:
        raise GridCoverageError(
            f"grid [{grid.p_min:g}, {grid.p_max:g}] truncates {tail:.2e} of the "
            f"packet norm (center {pc:g}, width {width:g})"
        )
    p = grid.points()
    envelope = np.exp(-((p - pc) ** 2) / (2.0 * width**2)).astype(complex)
    norm = math.sqrt(float((np.abs(envelope) ** 2).sum()) * grid.spacing)
    envelope /= norm
    return QuantumState(
        grid=grid,
        ground=spec.ground_amp * envelope,
        excited=spec.excited_amp * envelope,
        mass_kg=mass_kg,
        field=field,
    )


def expectation_momentum(state: QuantumState) -> float:
    """Mean momentum; the excited component carries one photon recoil."""
    p = state.grid.points()
    dp = state.grid.spacing
    n_ground = np.abs(state.ground) ** 2
    n_excited = np.abs(state.excited) ** 2
    return float(((n_ground * p).sum() + (n_excited * (p + state.field.recoil_momentum)).sum()) * dp)


def simulate(
    spec: WavepacketSpec,
    grid: MomentumGrid,
    field: LightField,
    mass_kg: float,
    times: Sequence[float],
) -> Trajectory:
    """Observables of the packet at each requested time, in closed form.

    Each block conserves its own norm, and with its effective Rabi
    frequency S, x = shift/S and y = rabi/S (x = 1, y = 0 where S = 0) its
    excited population is

        cos^2(St/2) |e0|^2 + sin^2(St/2) |D|^2 + sin(St) C,
        D = y g0 - x e0,  C = -y Im(g0 conj(e0)).

    So the norm is constant, the mean momentum is its t = 0 value plus
    hbar k times the excited population, and the mean position is the
    exact time integral of the mean velocity. Every row is exact on the
    grid: ``times`` only sets which rows are returned, not their accuracy.

    Raises :class:`DomainError` before any work when the run is out of the
    grid's or the float phase's reach: past t_alias = 2 pi / (max|dS/dp| dp)
    neighbouring blocks dephase by a full turn and the grid sum aliases into
    false revivals, and the rounding error of the largest phase,
    max(S) t_max 2^-52, must stay below ``_PHASE_TOL`` rad.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise DomainError("need at least two sample times")
    if times[0] != 0.0:
        raise DomainError("sample times must start at 0")
    if not np.all(np.diff(times) > 0):
        raise DomainError("sample times must be strictly increasing")

    p = grid.points()
    dp = grid.spacing
    t_max = float(times[-1])
    shift = block_detuning(p, field, mass_kg)
    split = effective_rabi(shift, field.rabi)
    phase = float(split.max()) * t_max
    if not phase * 2.0**-52 <= _PHASE_TOL:
        raise DomainError(
            f"the phase max(S) t_max = {phase:.3g} rad carries a rounding error of "
            f"{phase * 2.0**-52:.2g} rad, above {_PHASE_TOL:g} rad"
        )
    moving = split > 0.0
    inv_split = np.where(moving, 1.0 / np.where(moving, split, 1.0), 0.0)
    x = np.where(moving, shift * inv_split, 1.0)
    y = field.rabi * inv_split
    # |dS/dp| = |x| k / M; past t_alias neighbouring blocks dephase by 2 pi
    rate = float(np.abs(x).max()) * abs(field.wavenumber) / mass_kg
    if rate * dp * t_max > 2.0 * math.pi:
        needed = math.ceil(rate * (grid.p_max - grid.p_min) * t_max / (2.0 * math.pi)) + 1
        raise DomainError(
            f"t_max {t_max:g} s is past the aliasing horizon "
            f"{2.0 * math.pi / (rate * dp):.3g} s of a {grid.n_points}-point momentum "
            f"grid; at least {needed} grid points (--grid-points {needed}) resolve it"
        )

    initial = init_gaussian(spec, grid, field, mass_kg)
    ground0, excited0 = initial.ground, initial.excited
    n0 = np.abs(ground0) ** 2 + np.abs(excited0) ** 2
    norm = float(n0.sum() * dp)
    mean_p0 = float((n0 * p).sum() * dp)
    w_excited = np.abs(excited0) ** 2 * dp
    w_dressed = np.abs(y * ground0 - x * excited0) ** 2 * dp
    w_cross = -2.0 * y * (ground0 * np.conj(excited0)).imag * dp  # 2 C dp
    # columns: (pop, integral of pop) weights of sin^2(St/2) and of
    # cos(St/2) sin(St/2) = sin(St)/2; the S -> 0 limit is carried by t/2 below
    on_sin_sq = np.stack([w_dressed, w_cross * inv_split], axis=1)
    on_cross = np.stack([w_cross, (w_excited - w_dressed) * inv_split], axis=1)
    drift = 0.5 * float((w_excited + w_dressed).sum())

    n_t = len(times)
    pop_excited = np.empty(n_t)
    pop_integral = np.empty(n_t)
    rows = max(1, _CHUNK_DOUBLES // len(p))
    for lo in range(0, n_t, rows):
        t = times[lo:lo + rows]
        half = np.multiply.outer(t, 0.5 * split)
        cos_h, sin_h = np.cos(half), np.sin(half)
        cross = cos_h * sin_h
        np.square(cos_h, out=cos_h)
        np.square(sin_h, out=sin_h)
        from_sin_sq = sin_h @ on_sin_sq
        from_cross = cross @ on_cross
        pop_excited[lo:lo + rows] = cos_h @ w_excited + from_sin_sq[:, 0] + from_cross[:, 0]
        pop_integral[lo:lo + rows] = drift * t + from_sin_sq[:, 1] + from_cross[:, 1]

    recoil = field.recoil_momentum
    mean_p = mean_p0 + recoil * pop_excited
    mean_v = mean_p / mass_kg
    mean_x = spec.initial_position + (mean_p0 * times + recoil * pop_integral) / mass_kg
    return Trajectory(
        times=times,
        mean_momentum=mean_p,
        mean_velocity=mean_v,
        mean_position=mean_x,
        norm=np.full(n_t, norm),
        excited_population=pop_excited,
    )


def closed_form_displacement(
    t: float, spec: WavepacketSpec, field: LightField, mass_kg: float
) -> float:
    """Strong-coupling mean position: ballistic drift plus coherent walking.

        x(t) = x0 + pc t / M + (n0 - n1) (hbar k / 2M) (t - sin(W t) / W)

    Valid when the coupling dominates every block shift on the packet.
    """
    if t < 0:
        raise DomainError(f"time must be non-negative, got {t}")
    if not mass_kg > 0:
        raise DomainError(f"mass must be positive, got {mass_kg}")
    rabi = field.rabi
    if rabi <= 0:
        raise DomainError("closed-form displacement needs a positive coupling "
                          "(use free flight for an uncoupled atom)")
    drift = spec.population_difference * field.recoil_momentum / (2.0 * mass_kg)
    return (
        spec.initial_position
        + spec.center_momentum * t / mass_kg
        + drift * (t - math.sin(rabi * t) / rabi)
    )


def closed_form_velocity(
    t: float, spec: WavepacketSpec, field: LightField, mass_kg: float
) -> float:
    """Strong-coupling mean velocity, periodic with the Rabi period."""
    if t < 0:
        raise DomainError(f"time must be non-negative, got {t}")
    if not mass_kg > 0:
        raise DomainError(f"mass must be positive, got {mass_kg}")
    drift = spec.population_difference * field.recoil_momentum / (2.0 * mass_kg)
    return spec.center_momentum / mass_kg + drift * (1.0 - math.cos(field.rabi * t))


def check_populations(ground_fraction: float, excited_fraction: float) -> None:
    """Raise DomainError unless both populations lie in [0, 1] and sum to 1."""
    if not (0.0 <= ground_fraction <= 1.0 and 0.0 <= excited_fraction <= 1.0):
        raise DomainError("populations must lie in [0, 1]")
    if abs(ground_fraction + excited_fraction - 1.0) > _NORM_TOL:
        raise DomainError("populations must sum to 1")


def average_speed(
    species: Species,
    ground_fraction: float = 1.0,
    excited_fraction: float = 0.0,
    center_momentum: float = 0.0,
    consts: PhysicalConstants = PAPER_CONSTANTS,
) -> float:
    """Rabi-period-averaged drift speed of a species.

    v = pc / M + (n0 - n1) hbar k / (2 M); for a ground-state atom at rest
    this is h / (2 M wavelength).
    """
    check_populations(ground_fraction, excited_fraction)
    mass_kg = mass_to_si(species.mass_u, consts)
    k = wavenumber(species.wavelength_nm * 1e-9)
    return (
        center_momentum / mass_kg
        + (ground_fraction - excited_fraction) * consts.hbar * k / (2.0 * mass_kg)
    )
