import math

import numpy as np
import pytest

from lightwalk import (
    HBAR,
    DomainError,
    LightField,
    block_detuning,
    embedded_table1,
    evolve_block_numeric,
    mass_to_si,
    propagate,
    rk4_propagate,
    wavenumber,
)
from lightwalk.oracle import block_hamiltonian

RB87 = embedded_table1().get("Rb-87")
MASS = mass_to_si(RB87.mass_u)
WAVELENGTH = RB87.wavelength_nm * 1e-9
RECOIL_RATE = HBAR * wavenumber(WAVELENGTH) ** 2 / (2 * MASS)


def field_with_shift(shift, rabi=1.0e6):
    """Field whose p=0 block has the requested shift."""
    return LightField(WAVELENGTH, rabi=rabi, detuning=shift - RECOIL_RATE)


def test_non_positive_dt_rejected():
    # a NaN step cannot be counted, and an infinite one would span all of t in one step
    field = field_with_shift(0.0)
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            evolve_block_numeric(1.0, 0.0, 0.0, field, MASS, 1e-6, dt)
        with pytest.raises(DomainError):
            rk4_propagate(block_hamiltonian(0.0, field, MASS), [1.0, 0.0], 1e-6, dt)


def test_step_bounds_enforced_at_entry():
    rabi = 1e6
    field = field_with_shift(0.0, rabi)
    with pytest.raises(DomainError):
        evolve_block_numeric(1.0, 0.0, 0.0, field, MASS, 1e-6, 0.02 / rabi)
    # rabi*dt fine but the effective splitting is too fast for the step
    stiff = field_with_shift(5 * rabi, rabi)
    with pytest.raises(DomainError):
        evolve_block_numeric(1.0, 0.0, 0.0, stiff, MASS, 1e-6, 0.009 / rabi)


def test_max_steps_overflow():
    rabi = 1e6
    field = field_with_shift(0.0, rabi)
    # 5e8 steps of 2 ns, far over MAX_STEPS = 5e6
    with pytest.raises(DomainError):
        evolve_block_numeric(1.0, 0.0, 0.0, field, MASS, 1.0, 0.002 / rabi)


def test_zero_time_is_identity():
    field = field_with_shift(0.3e6)
    ground, excited = evolve_block_numeric(0.6, 0.8j, 1e-28, field, MASS, 0.0, 1e-9)
    assert ground == 0.6
    assert excited == 0.8j


def test_resonant_pi_pulse():
    rabi = 1e6
    field = field_with_shift(0.0, rabi)
    _, excited = evolve_block_numeric(1.0, 0.0, 0.0, field, MASS, math.pi / rabi, 0.002 / rabi)
    assert abs(excited) ** 2 == pytest.approx(1.0, abs=1e-8)


def test_matches_analytic_at_double_detuning():
    rng = np.random.default_rng(3)
    rabi = 1e6
    field = field_with_shift(2 * rabi, rabi)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw /= np.linalg.norm(raw)
    t = 10 * 2 * math.pi / rabi
    numeric = evolve_block_numeric(raw[0], raw[1], 0.0, field, MASS, t, 0.002 / rabi)
    ground, excited = propagate(raw[0], raw[1], 0.0, field, MASS, t)
    assert abs(numeric[0] - ground) < 1e-8
    assert abs(numeric[1] - excited) < 1e-8


def test_norm_drift_small():
    rabi = 1e6
    field = field_with_shift(0.0, rabi)
    ground, excited = evolve_block_numeric(
        1.0, 0.0, 0.0, field, MASS, 10 * 2 * math.pi / rabi, 0.01 / rabi
    )
    assert abs(abs(ground) ** 2 + abs(excited) ** 2 - 1.0) < 1e-8


def test_fourth_order_convergence():
    rabi = 1e6
    field = field_with_shift(2 * rabi, rabi)
    split = float(np.hypot(2 * rabi, rabi))
    t = 10 * 2 * math.pi / rabi
    ground, excited = propagate(1.0, 0.0, 0.0, field, MASS, t)
    errors = []
    for dt in (0.02 / split, 0.01 / split):
        numeric = evolve_block_numeric(1.0, 0.0, 0.0, field, MASS, t, dt)
        errors.append(max(abs(numeric[0] - ground), abs(numeric[1] - excited)))
    factor = errors[0] / errors[1]
    assert 12.0 <= factor <= 20.0


def test_broadcasts_like_propagate():
    # amplitudes and momenta along one axis, times along another, one dt per time
    rng = np.random.default_rng(5)
    rabi = 1e6
    field = field_with_shift(0.4 * rabi, rabi)
    recoil = HBAR * wavenumber(WAVELENGTH)
    p = np.linspace(-0.5, 0.5, 7) * recoil
    g0 = rng.normal(size=7) + 1j * rng.normal(size=7)
    e0 = rng.normal(size=7) + 1j * rng.normal(size=7)
    t = np.array([0.0, 1.3, 4.0, 10.0])[:, None] * 2 * math.pi / rabi
    dt = np.array([1.0, 2.0, 1.5, 1.0])[:, None] * 1e-3 / rabi
    ground, excited = evolve_block_numeric(g0, e0, p, field, MASS, t, dt)
    exact = propagate(g0, e0, p, field, MASS, t)
    assert ground.shape == excited.shape == exact[0].shape == (4, 7)
    assert np.abs(ground - exact[0]).max() < 1e-8
    assert np.abs(excited - exact[1]).max() < 1e-8


def test_one_broadcast_call_equals_the_separate_calls_bit_for_bit():
    # validate's oracle checks batch their sweeps; its printed digits rest on this equality
    rng = np.random.default_rng(8)
    rabi = 1e6
    period = 2 * math.pi / rabi
    field = field_with_shift(0.5 * rabi, rabi)
    inits = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    checkpoints = np.array([2, 4, 6, 8, 10])[:, None] * period
    batch = evolve_block_numeric(*inits.T, 0.0, field, MASS, checkpoints, 0.002 / rabi)
    for i, checkpoint in enumerate((2, 4, 6, 8, 10)):
        alone = evolve_block_numeric(*inits.T, 0.0, field, MASS, checkpoint * period, 0.002 / rabi)
        assert np.array_equal(batch[0][i], alone[0]) and np.array_equal(batch[1][i], alone[1])

    split = float(np.hypot(2 * rabi, rabi))
    stiff = field_with_shift(2 * rabi, rabi)
    dts = np.array([0.02, 0.01]) / split
    batch = evolve_block_numeric(1.0, 0.0, 0.0, stiff, MASS, 10 * period, dts)
    for i, dt in enumerate((0.02 / split, 0.01 / split)):
        alone = evolve_block_numeric(1.0, 0.0, 0.0, stiff, MASS, 10 * period, dt)
        assert np.array_equal(batch[0][i], alone[0]) and np.array_equal(batch[1][i], alone[1])

    # the resonant pulse list holds the half-period transfer pulse pi / rabi
    resonant = field_with_shift(0.0, rabi)
    pulses = np.array([0.25, 0.5, 1.0, 1.75]) * period
    assert pulses[1] == math.pi / rabi
    _, batch = evolve_block_numeric(1.0, 0.0, 0.0, resonant, MASS, pulses, 0.002 / rabi)
    _, alone = evolve_block_numeric(1.0, 0.0, 0.0, resonant, MASS, math.pi / rabi, 0.002 / rabi)
    assert np.array_equal(batch[1], alone)


def test_randomized_agreement_batch():
    # 100 random (shift, coupling, init) tuples, each over 10 of its own periods
    rng = np.random.default_rng(99)
    n = 100
    rabis = rng.uniform(0.2e6, 5e6, size=n)
    shifts = rng.uniform(-3.0, 3.0, size=n) * rabis
    inits = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    inits /= np.linalg.norm(inits, axis=1, keepdims=True)

    fields = [field_with_shift(shifts[i], rabis[i]) for i in range(n)]
    matrices = np.stack([block_hamiltonian(0.0, f, MASS) for f in fields])
    periods = 2 * math.pi / rabis
    dts = 0.002 / np.hypot(shifts, rabis)  # resolves each block's effective Rabi frequency
    out = rk4_propagate(matrices, inits, 10 * periods, dts)

    worst = 0.0
    for i in range(n):
        exact = propagate(inits[i, 0], inits[i, 1], 0.0, fields[i], MASS, 10 * periods[i])
        worst = max(worst, abs(out[i, 0] - exact[0]), abs(out[i, 1] - exact[1]))
    assert worst < 1e-7


def stepwise_rk4(matrix, y, t, dt):
    """Classical four-stage RK4 for one matrix, one explicit step at a time."""
    rhs_t = (-1j * matrix).T  # y @ rhs_t applies the right-hand side to (..., 2) rows
    full = math.floor(t / dt + 1e-9)
    for h in [dt] * full + [max(t - full * dt, 0.0)]:
        k1 = y @ rhs_t
        k2 = (y + 0.5 * h * k1) @ rhs_t
        k3 = (y + 0.5 * h * k2) @ rhs_t
        k4 = (y + h * k3) @ rhs_t
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_polynomial_form_is_stepwise_rk4():
    rng = np.random.default_rng(17)
    n = 6
    rabis = rng.uniform(0.5e6, 2e6, size=n)
    shifts = rng.uniform(-2.0, 2.0, size=n) * rabis
    matrices = np.stack(
        [block_hamiltonian(0.0, field_with_shift(s, r), MASS) for s, r in zip(shifts, rabis)]
    )
    dts = rng.uniform(0.001, 0.003, size=n) / np.hypot(shifts, rabis)
    t = rng.uniform(500, 3000, size=n) * dts
    t[0] = 0.4 * dts[0]  # no full step, remainder only
    t[1] = 1200 * dts[1]  # an exact multiple of dt: no remainder left
    assert math.floor(t[0] / dts[0] + 1e-9) == 0
    assert math.floor(t[1] / dts[1] + 1e-9) == 1200
    inits = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))

    out = rk4_propagate(matrices, inits, t, dts)
    for i in range(n):
        expected = stepwise_rk4(matrices[i], inits[i], t[i], dts[i])
        assert np.abs(out[i] - expected).max() <= 1e-12

    # one (2, 2) matrix shared by a (100, 2) batch of amplitudes
    batch = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    out = rk4_propagate(matrices[2], batch, t[2], dts[2])
    assert out.shape == (100, 2)
    assert np.abs(out - stepwise_rk4(matrices[2], batch, t[2], dts[2])).max() <= 1e-12


def test_propagate_step_cap_raises_before_work():
    matrix = block_hamiltonian(0.0, field_with_shift(0.0), MASS)
    y0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(DomainError):
        rk4_propagate(matrix, y0, 1e6, 1e-9)  # 1e15 steps, far over MAX_STEPS


@pytest.mark.parametrize("t", [math.nan, math.inf, -1e-9])
def test_rk4_propagate_rejects_non_finite_or_negative_time(t):
    matrix = block_hamiltonian(0.0, field_with_shift(0.0), MASS)
    y0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(DomainError):
        rk4_propagate(matrix, y0, t, 1e-9)
    with pytest.raises(DomainError):
        rk4_propagate(np.stack([matrix, matrix]), np.stack([y0, y0]), np.array([1e-6, t]), 1e-9)


def test_hamiltonian_matches_block_shift():
    field = field_with_shift(0.7e6)
    p = 0.3 * HBAR * wavenumber(WAVELENGTH)
    matrix = block_hamiltonian(p, field, MASS)
    assert matrix[0, 1] == matrix[1, 0] == -field.rabi / 2
    assert (matrix[1, 1] - matrix[0, 0]).real == pytest.approx(
        float(block_detuning(p, field, MASS)), rel=1e-12
    )


def test_hamiltonian_broadcasts_over_momentum():
    field = field_with_shift(0.7e6)
    p = np.array([[-0.3, 0.0], [0.2, 1.1]]) * HBAR * wavenumber(WAVELENGTH)
    matrices = block_hamiltonian(p, field, MASS)
    assert matrices.shape == (2, 2, 2, 2)
    for index in np.ndindex(p.shape):
        assert np.array_equal(matrices[index], block_hamiltonian(p[index], field, MASS))
