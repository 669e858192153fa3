"""Coherent motion of a two-level atom in a traveling light wave.

One-photon exchange couples the bare states |0,p> and |1,p+hbar*k| in
closed two-dimensional momentum blocks, so the dynamics factorizes over
momentum. Each block is solved exactly by dressing it: with the block
shift d (detuning + Doppler + recoil) and coupling strength W, the
amplitudes rotate at the effective Rabi frequency sqrt(d^2 + W^2) under a
common phase set by the block's frequency trace. Gaussian wavepackets,
their momentum/position expectation values, the bare and dressed
frequencies of each block and the strong-coupling closed forms for the
light-induced drift all live here.

All quantities are SI; the only physical constant used is hbar, shared
by both constant sets.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import KW_ONLY, dataclass
from typing import Sequence

import numpy as np

from .constants import HBAR, wavenumber
from .errors import MAX_ARRAY_LEN, DomainError, check_mass_kg, check_time

_NORM_TOL = 1e-12
# simulate refuses runs whose largest phase S t_max carries a rounding error
# above this (rad): the 9 printed digits of a population would then move
_PHASE_TOL = 1e-9
# simulate evaluates time rows in chunks whose (rows x grid points) tables
# hold about this many doubles, so that each worker's tables stay in its
# core's cache at any run length
_CHUNK_DOUBLES = 1 << 14


@dataclass(frozen=True)
class LightField:
    """Traveling wave driving the transition.

    ``direction`` (+1 or -1) is the propagation direction along x,
    ``rabi`` the coupling strength in rad/s (real and non-negative),
    ``detuning`` the light frequency offset from the bare transition in rad/s.
    """

    wavelength: float
    _: KW_ONLY
    rabi: float = 1.0e6
    detuning: float = 0.0
    direction: int = 1

    def __post_init__(self) -> None:
        wavenumber(self.wavelength)
        if not (math.isfinite(self.rabi) and self.rabi >= 0):
            raise DomainError(f"rabi must be finite and non-negative, got {self.rabi}")
        if not math.isfinite(self.detuning):
            raise DomainError(f"detuning must be finite, got {self.detuning}")
        if self.direction not in (1, -1):
            raise DomainError("direction must be +1 or -1")

    @property
    def wavenumber(self) -> float:
        """Signed angular wavenumber in rad/m: its sign is the direction."""
        return self.direction * wavenumber(self.wavelength)

    @property
    def recoil_momentum(self) -> float:
        """Signed photon momentum hbar*k in kg m/s."""
        return HBAR * self.wavenumber

    @property
    def period(self) -> float:
        """Rabi period 2 pi / rabi; infinite for an uncoupled field."""
        return 2.0 * math.pi / self.rabi if self.rabi > 0 else math.inf


@dataclass(frozen=True, init=False)
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

    def __init__(self, center_momentum: float, momentum_width: float,
                 ground_amp: complex = 1.0 + 0.0j, excited_amp: complex = 0.0 + 0.0j,
                 initial_position: float = 0.0) -> None:
        # checks, then stores that bypass the frozen __setattr__: the planner builds
        # two specs per bisection step; chained comparisons, not calls; NaN fails each
        if not -math.inf < center_momentum < math.inf:
            raise DomainError(f"center momentum is not finite: {center_momentum}")
        if not 0.0 < momentum_width < math.inf:
            raise DomainError(f"momentum width is not finite and positive: {momentum_width}")
        if not math.isfinite(initial_position):
            raise DomainError(f"initial position must be finite, got {initial_position}")
        total = abs(ground_amp) ** 2 + abs(excited_amp) ** 2
        if not abs(total - 1.0) <= _NORM_TOL:
            raise DomainError(f"internal amplitudes must be normalized, got norm {total}")
        fields = self.__dict__
        fields["center_momentum"] = center_momentum
        fields["momentum_width"] = momentum_width
        fields["ground_amp"] = ground_amp
        fields["excited_amp"] = excited_amp
        fields["initial_position"] = initial_position

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
        if not 2 <= self.n_points <= MAX_ARRAY_LEN:
            raise DomainError(f"grid needs 2 to {MAX_ARRAY_LEN} points, got {self.n_points}")
        if not (math.isfinite(self.p_min) and math.isfinite(self.p_max)):
            raise DomainError(f"grid bounds are not finite: [{self.p_min}, {self.p_max}]")
        if not self.p_max > self.p_min:
            raise DomainError(f"p_max must exceed p_min: [{self.p_min}, {self.p_max}]")

    @property
    def spacing(self) -> float:
        return (self.p_max - self.p_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_points)

    @classmethod
    def for_packet(
        cls, spec: WavepacketSpec, half_span: float = 6.0, n_points: int = 4096
    ) -> "MomentumGrid":
        """Grid centered on the packet, default +-6 widths at 4096 points.

        Raises :class:`DomainError` when the half span is not finite and
        positive, when the span underflows to 0, or when it rounds away beside
        the center momentum, so that a grid bound equals the center.
        """
        center, width = spec.center_momentum, spec.momentum_width
        span = half_span * width
        if not (0.0 < half_span < math.inf and span > 0.0):
            raise DomainError(
                f"grid half span must be finite and positive, with a nonzero span: got half "
                f"span {half_span:g}, a span of {span:g} kg m/s at width {width:g} kg m/s"
            )
        if not center - span < center < center + span:
            raise DomainError(
                f"momentum width {width:g} vanishes beside the center momentum {center:g} "
                f"(center/width = {center / width:.3g}): center +- {half_span:g} widths "
                f"rounds to the center"
            )
        return cls(center - span, center + span, n_points)


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
    return p * p / (2.0 * check_mass_kg(mass_kg) * HBAR)


def block_detuning(p, field: LightField, mass_kg: float):
    """Shift of one momentum block: detuning + Doppler + photon recoil.

    Equals detuning + p*k/M + hbar*k^2/(2M), i.e. the splitting of the
    block's two bare frequencies. Accepts scalar or array p.
    """
    check_mass_kg(mass_kg)
    k = field.wavenumber
    return field.detuning + p * k / mass_kg + HBAR * k * k / (2.0 * mass_kg)


def _block_frame(p, field: LightField, mass_kg: float):
    """Dressed frame (S, trace, 1/S, x, y) of the blocks at momentum p.

    S is the effective Rabi frequency, trace the sum of the block's two bare
    frequencies, and x = shift/S, y = rabi/S its mixing ratios. A block with
    S = 0 is a pure common phase; its limit is 1/S = y = 0 and x = 1.
    """
    shift = block_detuning(p, field, mass_kg)
    split = np.hypot(shift, field.rabi)
    trace = 2.0 * kinetic_frequency(p, mass_kg) + shift
    moving = split > 0.0
    inv_split = np.where(moving, 1.0 / np.where(moving, split, 1.0), 0.0)
    return split, trace, inv_split, np.where(moving, shift * inv_split, 1.0), field.rabi * inv_split


def dressed_frequencies(p, field: LightField, mass_kg: float):
    """Dressed eigenfrequency pair (low, high) of the block at momentum p.

    Their sum is the block's frequency trace, their difference the
    effective Rabi frequency. Accepts scalar or array p.
    """
    split, trace = _block_frame(p, field, mass_kg)[:2]
    return 0.5 * (trace - split), 0.5 * (trace + split)


def bare_frequencies(p, field: LightField, mass_kg: float):
    """Bare frequency pair (ground, excited) of the block at momentum p.

    They are the diagonal of the block's frequency matrix: the kinetic rate
    of |0,p>, and the detuning plus the kinetic rate of |1,p+hbar*k>.
    Accepts scalar or array p.
    """
    ground = kinetic_frequency(p, mass_kg)
    return ground, field.detuning + kinetic_frequency(p + field.recoil_momentum, mass_kg)


def propagate(ground0, excited0, p, field: LightField, mass_kg: float, t):
    """Exact amplitudes of momentum blocks after time t >= 0.

    ``ground0`` multiplies |0,p>, ``excited0`` |1,p+hbar*k>; all of
    ``ground0``, ``excited0``, ``p`` and ``t`` broadcast, so a scalar call
    is the 0-d case. Each block rotates at its effective Rabi frequency
    under the common phase of its frequency trace, so its norm is conserved
    identically. Blocks with vanishing effective Rabi frequency reduce to
    that pure common phase (both bare frequencies coincide there), the limit
    :func:`_block_frame` sets.
    """
    t = check_time(t)
    split, trace, _, x, y = _block_frame(p, field, mass_kg)
    half = 0.5 * split * t
    cos_h, sin_h = np.cos(half), np.sin(half)
    phase = np.exp(-0.5j * trace * t)
    ground = phase * ((cos_h + 1j * x * sin_h) * ground0 + 1j * y * sin_h * excited0)
    excited = phase * (1j * y * sin_h * ground0 + (cos_h - 1j * x * sin_h) * excited0)
    return ground, excited


def init_gaussian(spec: WavepacketSpec, grid: MomentumGrid):
    """t = 0 amplitudes (ground, excited) of the Gaussian packet on the grid.

    The envelope is normalized to unit norm on the grid. Raises
    :class:`DomainError` when the grid truncates more than 1e-6 of
    the packet's norm (grids should span the center +-5 widths), when
    the width is so extreme that its square over- or underflows or the
    squared grid offsets overflow, and when the grid is too coarse to
    resolve the packet: its discrete norm sum |env|^2 dp is off from
    width sqrt(pi) by more than the same 1e-6 (at +-6 widths, 15 points
    or fewer; an envelope that is 0 on every grid point is off by 1).
    """
    pc, width = spec.center_momentum, spec.momentum_width
    tail = 0.5 * (
        math.erfc((grid.p_max - pc) / width) + math.erfc((pc - grid.p_min) / width)
    )
    if tail > 1e-6:
        raise DomainError(
            f"grid [{grid.p_min:g}, {grid.p_max:g}] truncates {tail:.2e} of the "
            f"packet norm (center {pc:g}, width {width:g})"
        )
    p = grid.points()
    # float_power is the C pow of width**2 but overflows to inf instead of raising;
    # a square that overflows or underflows is refused below, while an envelope
    # that is 0 on every point of a healthy grid is a grid too coarse for the packet
    with np.errstate(all="ignore"):
        offset_sq = (p - pc) ** 2
        width_sq = np.float_power(width, 2)
        envelope = np.exp(-offset_sq / (2.0 * width_sq)).astype(complex)
        sum_sq = float((np.abs(envelope) ** 2).sum())
        norm = math.sqrt(sum_sq * grid.spacing)
    if not (np.isfinite(offset_sq).all() and 0.0 < width_sq < math.inf):
        raise DomainError(
            f"momentum width {width:g} is out of float range: on the grid the squared "
            f"offsets reach {offset_sq.max():g} and the packet envelope has norm {norm:g}"
        )
    resolution = abs(sum_sq * (grid.spacing / width) / math.sqrt(math.pi) - 1.0)
    if not resolution <= 1e-6:
        raise DomainError(
            f"{grid.n_points} grid points are too coarse for the packet (width {width:g}, "
            f"spacing {grid.spacing:g}): its discrete norm is off by {resolution:.2e}"
        )
    envelope /= norm
    return spec.ground_amp * envelope, spec.excited_amp * envelope


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (its affinity mask, not the host's)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_workers(work, workers: int) -> None:
    """Call ``work(0)`` here and ``work(1)`` ... ``work(workers - 1)`` on helper threads.

    Each helper runs in a copy of the caller's context, so numpy's
    ``errstate`` (a context variable) holds in it too. Every helper has
    ended before this returns or raises; then the exception of the first
    helper that failed, in worker order, propagates here. With one worker
    no thread starts.
    """
    if workers == 1:
        work(0)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a run that spreads pays the import

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(contextvars.copy_context().run, work, worker)
                   for worker in range(1, workers)]
        work(0)
    for helper in helpers:
        helper.result()


def simulate(
    spec: WavepacketSpec,
    grid: MomentumGrid,
    field: LightField,
    mass_kg: float,
    times: Sequence[float],
) -> Trajectory:
    """Observables of the packet at each requested time, in closed form.

    Each block conserves its own norm, and with its effective Rabi
    frequency S, x = shift/S and y = rabi/S (:func:`_block_frame` sets their
    S = 0 limit) its excited population is

        cos^2(St/2) |e0|^2 + sin^2(St/2) |D|^2 + sin(St) C,
        D = y g0 - x e0,  C = -y Im(g0 conj(e0)).

    So the norm is constant, the mean momentum is its t = 0 value plus
    hbar k times the excited population, and the mean position is the
    exact time integral of the mean velocity. Every row is exact on the
    grid: ``times`` only sets which rows are returned, not their accuracy.
    The rows are evaluated in chunks spread over the CPUs this process may
    run on; every bit of the result is the same whatever their number.

    Raises :class:`DomainError` before any work when the run is out of the
    float phase's or the grid's reach: the rounding error of the largest
    phase, max(S) t_max 2^-52, must stay below ``_PHASE_TOL`` rad; the grid
    must hold the packet (see :func:`init_gaussian`), checked first so that
    the aliasing refusal names only grids that pass; and past t_alias =
    2 pi / (max|dS/dp| dp) neighbouring blocks dephase by a full turn and
    the grid sum aliases into false revivals.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise DomainError("need at least two sample times")
    if times[0] != 0.0:
        raise DomainError("sample times must start at 0")
    stalled = np.flatnonzero(~(np.diff(times) > 0))
    if len(stalled):
        i = int(stalled[0]) + 1  # linspace can round a sample onto its neighbour
        raise DomainError(
            f"sample times must be strictly increasing: times[{i}] = {float(times[i])!r} s "
            f"does not follow times[{i - 1}] = {float(times[i - 1])!r} s"
        )

    p = grid.points()
    dp = grid.spacing
    t_max = float(times[-1])
    split, _, inv_split, x, y = _block_frame(p, field, mass_kg)
    phase = float(split.max()) * t_max
    if not phase * 2.0**-52 <= _PHASE_TOL:
        raise DomainError(
            f"the phase max(S) t_max = {phase:.3g} rad carries a rounding error of "
            f"{phase * 2.0**-52:.2g} rad, above {_PHASE_TOL:g} rad"
        )
    ground0, excited0 = init_gaussian(spec, grid)
    # |dS/dp| = |x| k / M; past t_alias neighbouring blocks dephase by 2 pi
    rate = float(np.abs(x).max()) * abs(field.wavenumber) / mass_kg
    if rate * dp * t_max > 2.0 * math.pi:
        needed = math.ceil(rate * (grid.p_max - grid.p_min) * t_max / (2.0 * math.pi)) + 1
        raise DomainError(
            f"t_max {t_max:g} s is past the aliasing horizon "
            f"{2.0 * math.pi / (rate * dp):.3g} s of a {grid.n_points}-point momentum "
            f"grid; at least {needed} grid points (--grid-points {needed}) resolve it"
        )

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
    starts = range(0, n_t, rows)
    workers = min(_usable_cpus(), len(starts))

    # each worker's three (rows x grid points) tables, allocated here so that no
    # helper thread allocates a large buffer and grows a malloc arena of its own
    tables = np.empty((workers, 3, rows, len(p)))

    def fill(worker: int) -> None:
        # each worker writes only the rows of its own chunks
        for lo in starts[worker::workers]:
            t = times[lo:lo + rows]
            sin_h, cos_h, cross = tables[worker, :, :len(t)]
            np.multiply.outer(t, 0.5 * split, out=sin_h)  # the half phases St/2
            np.cos(sin_h, out=cos_h)
            np.sin(sin_h, out=sin_h)
            np.multiply(cos_h, sin_h, out=cross)
            np.square(cos_h, out=cos_h)
            np.square(sin_h, out=sin_h)
            from_sin_sq = sin_h @ on_sin_sq
            from_cross = cross @ on_cross
            pop_excited[lo:lo + rows] = cos_h @ w_excited + from_sin_sq[:, 0] + from_cross[:, 0]
            pop_integral[lo:lo + rows] = drift * t + from_sin_sq[:, 1] + from_cross[:, 1]

    _run_workers(fill, workers)

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


def closed_form_displacement(t, spec: WavepacketSpec, field: LightField, mass_kg: float):
    """Strong-coupling mean position: ballistic drift plus coherent walking.

        x(t) = x0 + pc t / M + (n0 - n1) (hbar k / 2M) (t - sin(W t) / W)

    Valid when the coupling dominates every block shift on the packet.
    At W = 0 it is free flight, x0 + pc t / M, like the velocity's form: it
    writes sin(W t) / W as t sinc(W t / pi), whose limit at W = 0 is t.
    ``t`` may be an array; a scalar ``t`` gives a float.
    """
    t = check_time(t)
    drift = spec.population_difference * field.recoil_momentum / (2.0 * check_mass_kg(mass_kg))
    x = (
        spec.initial_position
        + spec.center_momentum * t / mass_kg
        + drift * (t - t * np.sinc(field.rabi * t / math.pi))
    )
    return float(x) if np.ndim(x) == 0 else x


def closed_form_velocity(t, spec: WavepacketSpec, field: LightField, mass_kg: float):
    """Strong-coupling mean velocity, periodic with the Rabi period.

    ``t`` may be an array; a scalar ``t`` gives a float.
    """
    t = check_time(t)
    drift = spec.population_difference * field.recoil_momentum / (2.0 * check_mass_kg(mass_kg))
    v = spec.center_momentum / mass_kg + drift * (1.0 - np.cos(field.rabi * t))
    return float(v) if np.ndim(v) == 0 else v
