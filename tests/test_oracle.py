import math

import numpy as np
import pytest

from lightwalk import (
    HBAR,
    BlockAmplitudes,
    IntegratorConfig,
    IntegratorError,
    LightField,
    block_detuning,
    block_hamiltonian,
    effective_rabi,
    embedded_table1,
    evolve_block_numeric,
    mass_to_si,
    propagate,
    rk4_propagate,
    suggested_dt,
    wavenumber,
)

RB87 = embedded_table1().get("Rb-87")
MASS = mass_to_si(RB87.mass_u)
WAVELENGTH = RB87.wavelength_nm * 1e-9
RECOIL_RATE = HBAR * wavenumber(WAVELENGTH) ** 2 / (2 * MASS)


def field_with_shift(shift, rabi=1.0e6):
    """Field whose p=0 block has the requested shift."""
    return LightField.from_wavelength(WAVELENGTH, rabi=rabi, detuning=shift - RECOIL_RATE)


def test_config_validation():
    with pytest.raises(IntegratorError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(IntegratorError):
        IntegratorConfig(dt=1e-9, method_tag="euler")
    with pytest.raises(IntegratorError):
        IntegratorConfig(dt=1e-9, max_steps=0)


def test_step_bounds_enforced_at_entry():
    rabi = 1e6
    field = field_with_shift(0.0, rabi)
    init = BlockAmplitudes(0.0, 1.0, 0.0)
    with pytest.raises(IntegratorError):
        evolve_block_numeric(init, field, MASS, 1e-6, IntegratorConfig(dt=0.02 / rabi))
    # rabi*dt fine but the effective splitting is too fast for the step
    stiff = field_with_shift(5 * rabi, rabi)
    with pytest.raises(IntegratorError):
        evolve_block_numeric(init, stiff, MASS, 1e-6, IntegratorConfig(dt=0.009 / rabi))


def test_max_steps_overflow():
    rabi = 1e6
    field = field_with_shift(0.0, rabi)
    cfg = IntegratorConfig(dt=0.002 / rabi, max_steps=10)
    with pytest.raises(IntegratorError):
        evolve_block_numeric(BlockAmplitudes(0.0, 1.0, 0.0), field, MASS, 1e-3, cfg)


def test_zero_time_is_identity():
    field = field_with_shift(0.3e6)
    init = BlockAmplitudes(1e-28, 0.6, 0.8j)
    out = evolve_block_numeric(init, field, MASS, 0.0, IntegratorConfig(dt=1e-9))
    assert out == init


def test_resonant_pi_pulse():
    rabi = 1e6
    field = field_with_shift(0.0, rabi)
    init = BlockAmplitudes(0.0, 1.0, 0.0)
    out = evolve_block_numeric(init, field, MASS, math.pi / rabi, IntegratorConfig(0.002 / rabi))
    assert abs(out.excited) ** 2 == pytest.approx(1.0, abs=1e-8)


def test_matches_analytic_at_double_detuning():
    rng = np.random.default_rng(3)
    rabi = 1e6
    field = field_with_shift(2 * rabi, rabi)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw /= np.linalg.norm(raw)
    init = BlockAmplitudes(0.0, complex(raw[0]), complex(raw[1]))
    t = 10 * 2 * math.pi / rabi
    numeric = evolve_block_numeric(init, field, MASS, t, IntegratorConfig(0.002 / rabi))
    ground, excited = propagate(init.ground, init.excited, 0.0, field, MASS, t)
    assert abs(numeric.ground - ground) < 1e-8
    assert abs(numeric.excited - excited) < 1e-8


def test_norm_drift_small():
    rabi = 1e6
    field = field_with_shift(0.0, rabi)
    init = BlockAmplitudes(0.0, 1.0, 0.0)
    out = evolve_block_numeric(
        init, field, MASS, 10 * 2 * math.pi / rabi, IntegratorConfig(0.01 / rabi)
    )
    assert abs(out.norm_sq - 1.0) < 1e-8


def test_fourth_order_convergence():
    rabi = 1e6
    field = field_with_shift(2 * rabi, rabi)
    split = float(effective_rabi(2 * rabi, rabi))
    init = BlockAmplitudes(0.0, 1.0, 0.0)
    t = 10 * 2 * math.pi / rabi
    ground, excited = propagate(1.0, 0.0, 0.0, field, MASS, t)
    errors = []
    for dt in (0.02 / split, 0.01 / split):
        numeric = evolve_block_numeric(init, field, MASS, t, IntegratorConfig(dt))
        errors.append(max(abs(numeric.ground - ground), abs(numeric.excited - excited)))
    factor = errors[0] / errors[1]
    assert 12.0 <= factor <= 20.0


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
    dts = np.array([suggested_dt(f, shift_bound=shifts[i]) for i, f in enumerate(fields)])
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
    with pytest.raises(IntegratorError):
        rk4_propagate(matrix, y0, 1e-6, 1e-9, max_steps=10)
    with pytest.raises(IntegratorError):
        rk4_propagate(matrix, y0, 1e6, 1e-9)  # 1e15 steps, far over the default cap


@pytest.mark.parametrize("t", [math.nan, math.inf, -1e-9])
def test_rk4_propagate_rejects_non_finite_or_negative_time(t):
    matrix = block_hamiltonian(0.0, field_with_shift(0.0), MASS)
    y0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(IntegratorError):
        rk4_propagate(matrix, y0, t, 1e-9)
    with pytest.raises(IntegratorError):
        rk4_propagate(np.stack([matrix, matrix]), np.stack([y0, y0]), np.array([1e-6, t]), 1e-9)


def test_suggested_dt_resolves_fastest_scale():
    field = field_with_shift(2e6, 1e6)
    dt = suggested_dt(field, shift_bound=2e6)
    split = float(effective_rabi(2e6, 1e6))
    assert split * dt == pytest.approx(0.002, rel=1e-12)


def test_hamiltonian_matches_block_shift():
    field = field_with_shift(0.7e6)
    p = 0.3 * HBAR * wavenumber(WAVELENGTH)
    matrix = block_hamiltonian(p, field, MASS)
    assert matrix[0, 1] == matrix[1, 0] == -field.rabi / 2
    assert (matrix[1, 1] - matrix[0, 0]).real == pytest.approx(
        float(block_detuning(p, field, MASS)), rel=1e-12
    )
