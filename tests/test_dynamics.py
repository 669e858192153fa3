import contextlib
import dataclasses
import inspect
import io
import math
import os
import pickle
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightwalk
from lightwalk import (
    HBAR,
    DomainError,
    LightField,
    MomentumGrid,
    WavepacketSpec,
    average_speed,
    bare_frequencies,
    block_detuning,
    closed_form_displacement,
    closed_form_velocity,
    dressed_frequencies,
    embedded_table1,
    evolve_block_numeric,
    mass_to_si,
    propagate,
    simulate,
    wavenumber,
)
from lightwalk.cli import EXIT_DOMAIN, run
from lightwalk.dynamics import init_gaussian, kinetic_frequency
from lightwalk.oracle import block_hamiltonian
from lightwalk.planner import packet_width

RB87 = embedded_table1().get("Rb-87")
RB87_MASS = mass_to_si(RB87.mass_u)
RB87_WAVELENGTH = RB87.wavelength_nm * 1e-9
RB87_RECOIL_RATE = HBAR * wavenumber(RB87_WAVELENGTH) ** 2 / (2 * RB87_MASS)


def resonant_field(rabi=1.0e6, direction=1):
    """Field whose p=0 block sits exactly on resonance."""
    return LightField(
        RB87_WAVELENGTH, rabi=rabi, detuning=-RB87_RECOIL_RATE, direction=direction
    )


# ---------------------------------------------------------------- field types


def test_light_field_derives_its_wavenumber():
    field = LightField(780.027e-9, rabi=2e6, detuning=-3.0, direction=-1)
    assert field.wavenumber == pytest.approx(-8.0550869e6, rel=1e-7)
    assert field.wavenumber == -wavenumber(780.027e-9)
    assert field.rabi == 2e6
    assert field.detuning == -3.0
    assert field.period == pytest.approx(math.pi * 1e-6, rel=1e-12)


def test_light_field_validation():
    with pytest.raises(DomainError):
        LightField(780e-9, rabi=-1.0)
    with pytest.raises(DomainError):
        LightField(-780e-9)
    with pytest.raises(DomainError):
        LightField(780e-9, direction=2)
    with pytest.raises(TypeError):
        LightField(780e-9, 2e6)  # everything but the wavelength is keyword-only


@pytest.mark.parametrize("wavelength", [math.inf, math.nan])
def test_light_field_refuses_a_non_finite_wavelength(wavelength):
    # an infinite wavelength would give a wavenumber of exactly 0 rad/m
    with pytest.raises(DomainError):
        LightField(wavelength, rabi=1e6, detuning=0.0, direction=1)


def test_wavepacket_spec_validation():
    with pytest.raises(DomainError):
        WavepacketSpec(center_momentum=0.0, momentum_width=0.0)
    with pytest.raises(DomainError):
        WavepacketSpec(center_momentum=0.0, momentum_width=1e-28, ground_amp=1.0,
                       excited_amp=0.5)
    with pytest.raises(DomainError, match="center momentum"):
        WavepacketSpec(center_momentum=math.nan, momentum_width=1e-28)
    with pytest.raises(DomainError, match="not finite"):
        WavepacketSpec(center_momentum=0.0, momentum_width=math.inf)
    # NaN amplitudes give a NaN norm, which every comparison fails
    with pytest.raises(DomainError):
        WavepacketSpec(center_momentum=0.0, momentum_width=1e-28, ground_amp=math.nan)
    spec = WavepacketSpec(0.0, 1e-28, ground_amp=0.6, excited_amp=0.8j)
    assert spec.population_difference == pytest.approx(-0.28, rel=1e-12)


def test_wavepacket_spec_is_a_frozen_value_with_five_fields():
    spec = WavepacketSpec(1.5e-28, 1e-28, 0.6, 0.8j, 2e-6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.momentum_width = 2e-28
    with pytest.raises(DomainError):
        dataclasses.replace(spec, momentum_width=0.0)
    assert dataclasses.replace(spec, initial_position=0.0) == WavepacketSpec(
        1.5e-28, 1e-28, 0.6, 0.8j
    )
    assert [f.name for f in dataclasses.fields(WavepacketSpec)] == [
        "center_momentum", "momentum_width", "ground_amp", "excited_amp", "initial_position"
    ]
    twin = WavepacketSpec(center_momentum=1.5e-28, momentum_width=1e-28, ground_amp=0.6,
                          excited_amp=0.8j, initial_position=2e-6)
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != WavepacketSpec(1.5e-28, 1e-28, 0.8, 0.6j, 2e-6)
    assert WavepacketSpec(0.0, 1e-28) == WavepacketSpec(0.0, 1e-28, 1.0 + 0.0j, 0.0j, 0.0)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert repr(spec) == (
        "WavepacketSpec(center_momentum=1.5e-28, momentum_width=1e-28, ground_amp=0.6, "
        "excited_amp=0.8j, initial_position=2e-06)"
    )


@pytest.mark.parametrize(
    "fields, message",
    [
        ((math.nan, 1e-28), "center momentum is not finite: nan"),
        ((0.0, 0.0), "momentum width is not finite and positive: 0.0"),
        ((0.0, 1e-28, 1.0, 0.0, math.inf), "initial position must be finite, got inf"),
        ((0.0, 1e-28, 1.0, 1.0), "internal amplitudes must be normalized, got norm 2.0"),
        # the refusals run in this order: the first fault is the one named
        ((math.inf, -1.0, 2.0, 0.0, math.nan), "center momentum is not finite: inf"),
        ((0.0, -1.0, 2.0, 0.0, math.nan), "momentum width is not finite and positive: -1.0"),
        ((0.0, 1e-28, 2.0, 0.0, math.nan), "initial position must be finite, got nan"),
    ],
)
def test_wavepacket_spec_refusal_messages(fields, message):
    with pytest.raises(DomainError) as err:
        WavepacketSpec(*fields)
    assert str(err.value) == message


def test_momentum_grid():
    grid = MomentumGrid(-2.0, 2.0, 5)
    assert grid.spacing == 1.0
    assert np.allclose(grid.points(), [-2, -1, 0, 1, 2])
    with pytest.raises(DomainError):
        MomentumGrid(0.0, 1.0, 1)
    with pytest.raises(DomainError, match=r"p_max must exceed p_min: \[1.0, 1.0\]"):
        MomentumGrid(1.0, 1.0, 8)
    # an infinite bound would turn the grid points into NaN
    for p_min, p_max in [(-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf)]:
        with pytest.raises(DomainError, match="not finite"):
            MomentumGrid(p_min, p_max, 4)
    spec = WavepacketSpec(2.0e-28, 1.0e-28)
    packet_grid = MomentumGrid.for_packet(spec, half_span=6.0, n_points=4096)
    assert packet_grid.p_min == pytest.approx(-4.0e-28)
    assert packet_grid.p_max == pytest.approx(8.0e-28)
    assert packet_grid.n_points == 4096


# ------------------------------------------------------------- block algebra


def test_block_detuning_pure_recoil():
    field = LightField(RB87_WAVELENGTH, rabi=1e6, detuning=0.0)
    assert block_detuning(0.0, field, RB87_MASS) == pytest.approx(2.3572436e4, rel=1e-7)


def test_block_detuning_even_in_k_at_rest():
    forward = LightField(RB87_WAVELENGTH, direction=1)
    backward = LightField(RB87_WAVELENGTH, direction=-1)
    assert block_detuning(0.0, forward, RB87_MASS) == pytest.approx(
        block_detuning(0.0, backward, RB87_MASS), rel=1e-14
    )


def test_block_detuning_cancellation():
    p = 0.4 * HBAR * wavenumber(RB87_WAVELENGTH)
    k = wavenumber(RB87_WAVELENGTH)
    detuning = -(p * k / RB87_MASS + RB87_RECOIL_RATE)
    field = LightField(RB87_WAVELENGTH, rabi=1e6, detuning=detuning)
    assert abs(block_detuning(p, field, RB87_MASS)) < 1e-10 * RB87_RECOIL_RATE


def test_block_detuning_rejects_bad_mass():
    field = resonant_field()
    with pytest.raises(DomainError):
        block_detuning(0.0, field, 0.0)


_PACKET = WavepacketSpec(center_momentum=0.0, momentum_width=1e-28)
_FIELD = resonant_field()
_MASS_CALLS = {
    "bare_frequencies": lambda m: bare_frequencies(1e-27, _FIELD, m),
    "block_detuning": lambda m: block_detuning(0.0, _FIELD, m),
    "block_hamiltonian": lambda m: block_hamiltonian(0.0, _FIELD, m),
    "closed_form_displacement": lambda m: closed_form_displacement(1e-6, _PACKET, _FIELD, m),
    "closed_form_velocity": lambda m: closed_form_velocity(1e-6, _PACKET, _FIELD, m),
    "dressed_frequencies": lambda m: dressed_frequencies(1e-27, _FIELD, m),
    "evolve_block_numeric": lambda m: evolve_block_numeric(1.0, 0.0, 0.0, _FIELD, m, 1e-8, 1e-9),
    "kinetic_frequency": lambda m: kinetic_frequency(1e-27, m),
    "packet_width": lambda m: packet_width(_PACKET, m, 1e-3),
    "propagate": lambda m: propagate(1.0, 0.0, 0.0, _FIELD, m, 1e-6),
    "simulate": lambda m: simulate(_PACKET, MomentumGrid.for_packet(_PACKET, n_points=64),
                                   _FIELD, m, [0.0, 1e-9]),
}


def test_mass_calls_cover_every_public_function_taking_a_mass():
    # a new public function of a physics module with a mass_kg parameter must be
    # added to _MASS_CALLS, whether or not the package exports it
    taking_a_mass = {
        name
        for module in (lightwalk.dynamics, lightwalk.oracle, lightwalk.planner)
        for name, func in inspect.getmembers(module, inspect.isfunction)
        if func.__module__ == module.__name__ and not name.startswith("_")
        and "mass_kg" in inspect.signature(func).parameters
    }
    assert taking_a_mass == set(_MASS_CALLS)


@pytest.mark.parametrize("mass_kg", [math.inf, math.nan, 0.0, 1e-310])
@pytest.mark.parametrize("name", sorted(_MASS_CALLS))
def test_mass_must_be_a_finite_normal_float(name, mass_kg):
    # an infinite mass gives free-flight numbers such as 0.0, and 1/M overflows for
    # a subnormal one
    with pytest.raises(DomainError):
        _MASS_CALLS[name](mass_kg)


def test_dressed_frequencies_bare_limit():
    # with no coupling the branches are exactly the bare frequencies
    field = LightField(RB87_WAVELENGTH, rabi=0.0, detuning=5e5)
    p = 0.2 * HBAR * wavenumber(RB87_WAVELENGTH)
    low, high = dressed_frequencies(p, field, RB87_MASS)
    w_ground = p**2 / (2 * RB87_MASS * HBAR)
    w_excited = field.detuning + (p + field.recoil_momentum) ** 2 / (2 * RB87_MASS * HBAR)
    assert low == pytest.approx(w_ground, rel=1e-12)
    assert high == pytest.approx(w_excited, rel=1e-12)


@given(st.floats(min_value=-10, max_value=10))
def test_dressed_frequency_identities(p_hbark):
    field = resonant_field(rabi=7.7e5)
    p = p_hbark * HBAR * wavenumber(RB87_WAVELENGTH)
    low, high = dressed_frequencies(p, field, RB87_MASS)
    # reference from the bare frequencies, not from the dressed frame under test
    w_ground = p**2 / (2 * RB87_MASS * HBAR)
    w_excited = field.detuning + (p + field.recoil_momentum) ** 2 / (2 * RB87_MASS * HBAR)
    trace = w_ground + w_excited
    split = math.hypot(w_excited - w_ground, field.rabi)
    assert high - low == pytest.approx(split, rel=1e-12)
    assert high + low == pytest.approx(trace, rel=1e-12, abs=1e-12 * abs(split))


def test_band_structure_resonant_gap():
    # grid contains the exact crossing momentum -hbar*k/2 for detuning 0
    recoil = HBAR * wavenumber(RB87_WAVELENGTH)
    field = LightField(RB87_WAVELENGTH, rabi=1e6, detuning=0.0)
    p = MomentumGrid(-2 * recoil, 2 * recoil, 161).points()
    low, high = dressed_frequencies(p, field, RB87_MASS)
    gaps = high - low
    assert gaps.min() == pytest.approx(field.rabi, rel=1e-12)
    crossing = p[np.argmin(gaps)]
    assert crossing == pytest.approx(-recoil / 2, rel=1e-12)


def test_band_structure_uncoupled_matches_bare():
    recoil = HBAR * wavenumber(RB87_WAVELENGTH)
    field = LightField(RB87_WAVELENGTH, rabi=0.0, detuning=3e5)
    p = MomentumGrid(-2 * recoil, 2 * recoil, 101).points()
    low, high = dressed_frequencies(p, field, RB87_MASS)
    bare_ground, bare_excited = bare_frequencies(p, field, RB87_MASS)
    assert np.allclose(np.minimum(bare_ground, bare_excited), low, rtol=1e-12)
    assert np.allclose(np.maximum(bare_ground, bare_excited), high, rtol=1e-12)


def test_band_structure_detuned_gap_at_rest():
    # detuning equal to minus the recoil rate moves the crossing to p = 0
    recoil = HBAR * wavenumber(RB87_WAVELENGTH)
    field = resonant_field()
    p = MomentumGrid(-2 * recoil, 2 * recoil, 161).points()
    low, high = dressed_frequencies(p, field, RB87_MASS)
    gaps = high - low
    assert p[np.argmin(gaps)] == pytest.approx(0.0, abs=1e-40)
    assert gaps.min() == pytest.approx(field.rabi, rel=1e-12)


def test_propagate_resonant_ground_start():
    # on resonance the +/- components of a ground start recombine to cos / i sin
    rabi = 1e6
    field = resonant_field(rabi)
    t = 0.7 / rabi
    ground, excited = propagate(1.0, 0.0, 0.0, field, RB87_MASS, t)
    assert ground == pytest.approx(math.cos(rabi * t / 2))
    assert excited == pytest.approx(1j * math.sin(rabi * t / 2))


def test_propagate_resonant_excited_start():
    rabi = 1e6
    field = resonant_field(rabi)
    t = 0.7 / rabi
    ground, excited = propagate(0.0, 1.0, 0.0, field, RB87_MASS, t)
    assert ground == pytest.approx(1j * math.sin(rabi * t / 2))
    assert excited == pytest.approx(math.cos(rabi * t / 2))


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.1, max_value=10),
    st.complex_numbers(max_magnitude=1.0),
    st.complex_numbers(max_magnitude=1.0),
)
def test_propagate_initial_consistency(shift_ratio, rabi_mhz, g0, e0):
    rabi = rabi_mhz * 1e6
    shift = shift_ratio * rabi
    field = LightField(
        RB87_WAVELENGTH, rabi=rabi, detuning=shift - RB87_RECOIL_RATE
    )
    ground, excited = propagate(g0, e0, 0.0, field, RB87_MASS, 0.0)
    recombined = abs(ground) ** 2 + abs(excited) ** 2
    assert recombined == pytest.approx(abs(g0) ** 2 + abs(e0) ** 2, rel=1e-10, abs=1e-12)


def test_propagate_degenerate_block_is_pure_phase():
    # zero coupling and zero shift: no dressed splitting to divide by
    probe = LightField(RB87_WAVELENGTH, rabi=0.0)
    field = LightField(
        RB87_WAVELENGTH, rabi=0.0, detuning=-block_detuning(0.0, probe, RB87_MASS)
    )
    assert block_detuning(0.0, field, RB87_MASS) == 0.0
    g0, e0 = 0.6, 0.8j
    ground, excited = propagate(g0, e0, 0.0, field, RB87_MASS, 3e-6)
    assert np.isfinite(ground) and np.isfinite(excited)
    assert abs(ground) ** 2 + abs(excited) ** 2 == pytest.approx(1.0, abs=1e-15)
    assert ground / g0 == pytest.approx(excited / e0, abs=1e-15)


def test_dressed_frequencies_set_propagate_phases():
    field = resonant_field(rabi=2e6)
    p, g0, e0 = 1e-28, 0.8, 0.6j
    low, high = dressed_frequencies(p, field, RB87_MASS)
    split = np.hypot(block_detuning(p, field, RB87_MASS), field.rabi)
    assert high - low == pytest.approx(split, rel=1e-12)
    # after one beat period the block returns up to the common trace phase
    t = 2 * math.pi / split
    ground, excited = propagate(g0, e0, p, field, RB87_MASS, t)
    phase = -np.exp(-0.5j * (low + high) * t)
    assert ground == pytest.approx(phase * g0, abs=1e-12)
    assert excited == pytest.approx(phase * e0, abs=1e-12)


# ------------------------------------------------------------ block evolution


def test_evolve_block_identity_at_zero_time():
    field = resonant_field(rabi=1.3e6)
    g0, e0 = 0.6 + 0.1j, 0.7 - 0.2j
    ground, excited = propagate(g0, e0, 2e-28, field, RB87_MASS, 0.0)
    assert ground == pytest.approx(g0, rel=1e-12)
    assert excited == pytest.approx(e0, rel=1e-12)


def test_evolve_block_rejects_negative_time():
    with pytest.raises(DomainError):
        propagate(1.0, 0.0, 0.0, resonant_field(), RB87_MASS, -1.0)
    with pytest.raises(DomainError):
        propagate(1.0, 0.0, 0.0, resonant_field(), RB87_MASS, np.array([0.0, 1e-6, -1e-9]))


def test_resonant_rabi_flopping():
    rabi = 1e6
    field = resonant_field(rabi)
    times = np.linspace(0.0, 4 * math.pi / rabi, 23)
    _, excited = propagate(1.0, 0.0, 0.0, field, RB87_MASS, times)
    assert excited.shape == times.shape
    assert np.abs(np.abs(excited) ** 2 - np.sin(rabi * times / 2) ** 2).max() <= 1e-12
    _, pulse = propagate(1.0, 0.0, 0.0, field, RB87_MASS, math.pi / rabi)
    assert abs(pulse) ** 2 == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None)
@given(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=0.05, max_value=5),
    st.floats(min_value=0, max_value=20 * math.pi),
    st.complex_numbers(max_magnitude=1.0),
    st.complex_numbers(max_magnitude=1.0),
)
def test_per_block_unitarity(shift_ratio, rabi_mhz, phase, g0, e0):
    rabi = rabi_mhz * 1e6
    field = resonant_field(rabi)
    p = shift_ratio * RB87_MASS * rabi / wavenumber(RB87_WAVELENGTH)  # sets shift
    ground, excited = propagate(g0, e0, p, field, RB87_MASS, phase / rabi)
    norm_sq = abs(g0) ** 2 + abs(e0) ** 2
    assert abs(ground) ** 2 + abs(excited) ** 2 == pytest.approx(norm_sq, rel=1e-12, abs=1e-15)


def test_analytic_matches_oracle_half_detuned():
    rabi = 1e6
    field = resonant_field(rabi)
    # momentum chosen so the block shift is rabi/2
    p = 0.5 * rabi * RB87_MASS / wavenumber(RB87_WAVELENGTH)
    t = 3 * 2 * math.pi / rabi
    numeric = evolve_block_numeric(1.0, 0.0, p, field, RB87_MASS, t, 0.002 / rabi)
    ground, excited = propagate(1.0, 0.0, p, field, RB87_MASS, t)
    assert abs(numeric[0] - ground) < 1e-8
    assert abs(numeric[1] - excited) < 1e-8


def test_evolution_composes():
    field = resonant_field(rabi=0.9e6)
    spec = WavepacketSpec(0.0, 0.05 * HBAR * wavenumber(RB87_WAVELENGTH))
    grid = MomentumGrid.for_packet(spec, n_points=256)
    ground0, excited0 = init_gaussian(spec, grid)
    p = grid.points()
    t1, t2 = 1.3e-6, 3.1e-6
    mid = propagate(ground0, excited0, p, field, RB87_MASS, t1)
    via = propagate(*mid, p, field, RB87_MASS, t2 - t1)
    direct = propagate(ground0, excited0, p, field, RB87_MASS, t2)
    assert np.allclose(via[0], direct[0], rtol=1e-12, atol=1e-15)
    assert np.allclose(via[1], direct[1], rtol=1e-12, atol=1e-15)
    with pytest.raises(DomainError):
        propagate(*direct, p, field, RB87_MASS, t1 - t2)


# ------------------------------------------------------------------- packets


def packet(center_hbark=0.0, width_hbark=0.05, ground=1.0, excited=0.0, x0=0.0):
    recoil = HBAR * wavenumber(RB87_WAVELENGTH)
    return WavepacketSpec(
        center_momentum=center_hbark * recoil,
        momentum_width=width_hbark * recoil,
        ground_amp=ground,
        excited_amp=excited,
        initial_position=x0,
    )


def test_init_gaussian_normalization():
    spec = packet()
    grid = MomentumGrid.for_packet(spec, n_points=1024)
    ground, excited = init_gaussian(spec, grid)
    norm = float((np.abs(ground) ** 2 + np.abs(excited) ** 2).sum() * grid.spacing)
    assert norm == pytest.approx(1.0, abs=1e-14)
    assert float((np.abs(excited) ** 2).sum() * grid.spacing) == 0.0


def test_init_gaussian_moments():
    spec = packet(center_hbark=0.3)
    grid = MomentumGrid.for_packet(spec, half_span=6.0, n_points=1024)
    ground, _ = init_gaussian(spec, grid)
    p = grid.points()
    weights = np.abs(ground) ** 2 * grid.spacing
    mean = float((weights * p).sum())
    sigma = math.sqrt(float((weights * (p - mean) ** 2).sum()))
    assert abs(mean - spec.center_momentum) <= grid.spacing / 2
    assert sigma == pytest.approx(spec.momentum_width / math.sqrt(2), rel=1e-3)


def test_init_gaussian_coverage_error():
    spec = packet()
    narrow = MomentumGrid.for_packet(spec, half_span=3.0, n_points=256)
    with pytest.raises(DomainError):
        init_gaussian(spec, narrow)


def test_init_gaussian_refuses_a_grid_too_coarse_for_the_packet():
    # at +-6 widths the discrete norm is off by 2.9e-6 at 15 points and 4.0e-7 at 16
    spec = packet()
    with pytest.raises(DomainError, match="too coarse"):
        init_gaussian(spec, MomentumGrid.for_packet(spec, n_points=15))
    init_gaussian(spec, MomentumGrid.for_packet(spec, n_points=16))
    # the envelope is 0 on every point, and spacing / width overflows, so the
    # discrete norm is off by nan
    with pytest.raises(DomainError, match="too coarse"):
        init_gaussian(WavepacketSpec(0.0, 1e-160), MomentumGrid(-1e150, 1e150, 4))


@pytest.mark.parametrize("width_hbark", [1e-140, 4e180, 1e181, 1e200])
def test_init_gaussian_refuses_a_width_out_of_float_range(width_hbark):
    # the width squared underflows to 0, the squared offsets of the outer grid
    # points overflow, or both overflow
    spec = packet(width_hbark=width_hbark)
    with pytest.raises(DomainError, match="out of float range"):
        init_gaussian(spec, MomentumGrid.for_packet(spec, n_points=64))


def test_initial_mean_momentum():
    # the excited component carries one photon recoil
    recoil = HBAR * wavenumber(RB87_WAVELENGTH)
    ground_spec = packet(center_hbark=0.2)
    grid = MomentumGrid.for_packet(ground_spec, n_points=1024)
    field = resonant_field()
    times = [0.0, 1e-9]
    ground_run = simulate(ground_spec, grid, field, RB87_MASS, times)
    assert ground_run.mean_momentum[0] == pytest.approx(
        ground_spec.center_momentum, rel=1e-9, abs=1e-9 * recoil
    )
    excited_spec = packet(center_hbark=0.2, ground=0.0, excited=1.0)
    excited_run = simulate(excited_spec, grid, field, RB87_MASS, times)
    assert excited_run.mean_momentum[0] == pytest.approx(
        excited_spec.center_momentum + recoil, rel=1e-9
    )


def strong_coupling_setup(ratio=100.0, n_points=4096):
    spec = packet()
    grid = MomentumGrid.for_packet(spec, n_points=n_points)
    probe = LightField(RB87_WAVELENGTH, rabi=1.0, detuning=0.0)
    max_shift = float(np.abs(block_detuning(grid.points(), probe, RB87_MASS)).max())
    field = LightField(RB87_WAVELENGTH, rabi=ratio * max_shift, detuning=0.0)
    return spec, grid, field


def test_momentum_oscillation_strong_coupling():
    spec, grid, field = strong_coupling_setup()
    recoil = abs(field.recoil_momentum)
    times = np.linspace(0.0, 2 * field.period, 2 * 200 + 1)
    trajectory = simulate(spec, grid, field, RB87_MASS, times)
    expected = 0.5 * recoil * (1 - np.cos(field.rabi * times))
    assert np.abs(trajectory.mean_momentum - expected).max() < 0.01 * recoil


# ------------------------------------------------------------------ simulate


def test_simulate_free_flight():
    spec = packet(center_hbark=0.3, x0=1.0e-6)
    grid = MomentumGrid.for_packet(spec, n_points=512)
    field = LightField(RB87_WAVELENGTH, rabi=0.0, detuning=0.0)
    times = np.linspace(0.0, 50e-6, 101)
    trajectory = simulate(spec, grid, field, RB87_MASS, times)
    expected = spec.initial_position + spec.center_momentum * times / RB87_MASS
    assert np.allclose(trajectory.mean_position, expected, rtol=1e-12, atol=1e-18)
    assert np.abs(trajectory.norm - 1.0).max() < 1e-12
    assert np.all(trajectory.excited_population == 0.0)


def test_simulate_time_validation():
    spec, grid, field = strong_coupling_setup(n_points=256)
    with pytest.raises(DomainError):
        simulate(spec, grid, field, RB87_MASS, [1e-6, 2e-6])
    with pytest.raises(DomainError):
        simulate(spec, grid, field, RB87_MASS, [0.0, 2e-6, 1e-6])
    with pytest.raises(DomainError):
        simulate(spec, grid, field, RB87_MASS, [0.0])


def test_simulate_norm_stability():
    spec, grid, field = strong_coupling_setup(n_points=1024)
    times = np.linspace(0.0, 5 * field.period, 1001)
    trajectory = simulate(spec, grid, field, RB87_MASS, times)
    assert trajectory.mean_position[0] == spec.initial_position
    assert np.abs(trajectory.norm - 1.0).max() < 1e-9
    assert np.all((trajectory.excited_population >= 0) & (trajectory.excited_population <= 1))


def test_simulate_one_period_walk():
    spec, grid, field = strong_coupling_setup()
    times = np.linspace(0.0, field.period, 201)
    trajectory = simulate(spec, grid, field, RB87_MASS, times)
    expected = abs(field.recoil_momentum) * field.period / (2 * RB87_MASS)
    assert trajectory.mean_position[-1] - spec.initial_position == pytest.approx(
        expected, rel=0.01
    )


def test_simulate_global_phase_invariance():
    recoil = HBAR * wavenumber(RB87_WAVELENGTH)
    phase = np.exp(0.7j)
    base = WavepacketSpec(0.0, 0.05 * recoil, ground_amp=0.6, excited_amp=0.8)
    rotated = WavepacketSpec(
        0.0, 0.05 * recoil, ground_amp=0.6 * phase, excited_amp=0.8 * phase
    )
    grid = MomentumGrid.for_packet(base, n_points=512)
    field = resonant_field()
    times = np.linspace(0.0, 2 * field.period, 101)
    a = simulate(base, grid, field, RB87_MASS, times)
    b = simulate(rotated, grid, field, RB87_MASS, times)
    scale = abs(field.recoil_momentum)
    assert np.allclose(a.mean_momentum, b.mean_momentum, rtol=1e-12, atol=1e-13 * scale)
    assert np.allclose(a.mean_position, b.mean_position, rtol=1e-12, atol=1e-20)
    assert np.allclose(a.excited_population, b.excited_population, rtol=1e-12, atol=1e-13)


def test_simulate_direction_parity():
    spec = packet()  # symmetric packet at rest
    grid = MomentumGrid.for_packet(spec, n_points=1024)
    rabi = 100 * 1.6 * RB87_RECOIL_RATE
    forward = LightField(RB87_WAVELENGTH, rabi=rabi, detuning=0.0, direction=1)
    backward = LightField(RB87_WAVELENGTH, rabi=rabi, detuning=0.0, direction=-1)
    times = np.linspace(0.0, 2 * forward.period, 201)
    plus = simulate(spec, grid, forward, RB87_MASS, times)
    minus = simulate(spec, grid, backward, RB87_MASS, times)
    walk = plus.mean_position - spec.initial_position
    mirror = minus.mean_position - spec.initial_position
    assert np.abs(walk + mirror).max() <= 1e-9 * np.abs(walk).max()


def per_time_reference(spec, grid, field, times):
    """Observables from the amplitudes `propagate` evolves to every time.

    The independent reference for simulate's closed form: the norm comes
    from the evolved amplitudes, and each block is evolved to each time.
    """
    p, dp = grid.points(), grid.spacing
    ground, excited = propagate(
        *init_gaussian(spec, grid), p, field, RB87_MASS, np.asarray(times)[:, None]
    )
    n_ground, n_excited = np.abs(ground) ** 2, np.abs(excited) ** 2
    return {
        "norm": (n_ground + n_excited).sum(axis=1) * dp,
        "pop": n_excited.sum(axis=1) * dp,
        "mean_p": (n_ground @ p + n_excited @ (p + field.recoil_momentum)) * dp,
    }


def refined(times, factor=16):
    """``times`` with every interval split into ``factor`` equal parts."""
    steps = np.linspace(0.0, 1.0, factor + 1)[:-1]
    inner = times[:-1, None] + np.diff(times)[:, None] * steps
    return np.append(inner.ravel(), times[-1])


def zero_shift_field(rabi):
    """Field whose p = 0 block has a shift of exactly zero."""
    probe = LightField(RB87_WAVELENGTH, rabi=rabi)
    return LightField(
        RB87_WAVELENGTH, rabi=rabi, detuning=-block_detuning(0.0, probe, RB87_MASS)
    )


PERIOD_1MHZ = 2 * math.pi / 1e6
CLOSED_FORM_CASES = {
    # moving, mixed packet, detuned field, denser samples at early times
    "non-uniform-times": (
        packet(center_hbark=0.3, ground=math.sqrt(0.8), excited=math.sqrt(0.2), x0=1e-6),
        resonant_field(1e6),
        3 * PERIOD_1MHZ * np.linspace(0.0, 1.0, 301) ** 2,
    ),
    # a relative phase between the internal states: C = -y Im(g0 e0*) != 0
    "complex-amplitudes": (
        packet(center_hbark=-0.2, ground=0.6, excited=0.8 * np.exp(0.9j)),
        LightField(RB87_WAVELENGTH, rabi=1e6, detuning=0.7e6),
        np.linspace(0.0, 3 * PERIOD_1MHZ, 301),
    ),
    # no coupling, and the p = 0 grid point is a block with S = 0 exactly
    "rabi-zero": (
        packet(ground=0.6, excited=0.8j),
        zero_shift_field(0.0),
        np.linspace(0.0, 3 * PERIOD_1MHZ, 301),
    ),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_simulate_matches_per_time_propagate(case):
    spec, field, times = CLOSED_FORM_CASES[case]
    grid = MomentumGrid.for_packet(spec, n_points=257)
    p = grid.points()
    assert (np.hypot(block_detuning(p, field, RB87_MASS), field.rabi) == 0.0).any() == (
        case == "rabi-zero"
    )
    trajectory = simulate(spec, grid, field, RB87_MASS, times)
    reference = per_time_reference(spec, grid, field, times)
    recoil = abs(field.recoil_momentum)
    assert np.abs(trajectory.norm - reference["norm"]).max() <= 1e-12
    assert np.abs(trajectory.excited_population - reference["pop"]).max() <= 1e-12
    assert np.abs(trajectory.mean_momentum - reference["mean_p"]).max() <= 1e-12 * recoil

    # mean_x is the exact integral; the reference's trapezoid on a 16x finer grid
    fine = refined(times)
    velocity = per_time_reference(spec, grid, field, fine)["mean_p"] / RB87_MASS
    steps = np.concatenate([[0.0], np.cumsum(0.5 * (velocity[1:] + velocity[:-1]) * np.diff(fine))])
    position = spec.initial_position + steps[::16]
    scale = recoil / RB87_MASS * times[-1]
    assert np.abs(trajectory.mean_position - position).max() <= 1e-6 * scale


def test_simulate_matches_rk4_on_a_small_grid():
    spec = packet(center_hbark=0.4, ground=0.6, excited=0.8j)
    field = LightField(RB87_WAVELENGTH, rabi=1e6, detuning=-0.5e6)
    grid = MomentumGrid.for_packet(spec, n_points=64)
    times = np.array([0.0, 0.3e-6, 1.1e-6, 2.5e-6, 4.0e-6, 9.7e-6])
    trajectory = simulate(spec, grid, field, RB87_MASS, times)

    p, dp = grid.points(), grid.spacing
    split = np.hypot(block_detuning(p, field, RB87_MASS), field.rabi)
    ground, excited = evolve_block_numeric(
        *init_gaussian(spec, grid), p, field, RB87_MASS, times[:, None], 0.002 / split.max()
    )
    n_ground, n_excited = np.abs(ground) ** 2, np.abs(excited) ** 2
    recoil = abs(field.recoil_momentum)
    assert np.abs(trajectory.norm - (n_ground + n_excited).sum(axis=1) * dp).max() <= 1e-8
    assert np.abs(trajectory.excited_population - n_excited.sum(axis=1) * dp).max() <= 1e-8
    mean_p = (n_ground @ p + n_excited @ (p + field.recoil_momentum)) * dp
    assert np.abs(trajectory.mean_momentum - mean_p).max() <= 1e-8 * recoil


def test_simulate_ground_start_population_is_exactly_zero_at_t0():
    # the A + B cos(St) form of the same population gives -1.1e-16 here
    spec = packet()
    field = LightField(RB87_WAVELENGTH, rabi=1e6, detuning=0.4e6)
    grid = MomentumGrid.for_packet(spec, n_points=1024)
    trajectory = simulate(spec, grid, field, RB87_MASS, np.linspace(0.0, 2 * field.period, 101))
    assert trajectory.excited_population[0] == 0.0
    assert np.all(trajectory.excited_population >= 0.0)
    assert trajectory.mean_position[0] == spec.initial_position


def mg24_setup(n_points):
    species = embedded_table1().get("Mg-24")
    mass = mass_to_si(species.mass_u)
    field = LightField(species.wavelength_nm * 1e-9, rabi=1e6)
    spec = WavepacketSpec(0.0, 0.05 * abs(field.recoil_momentum))
    grid = MomentumGrid.for_packet(spec, n_points=n_points)
    shift = block_detuning(grid.points(), field, mass)
    rate = np.abs(shift / np.hypot(shift, field.rabi)).max() * abs(field.wavenumber) / mass
    return spec, grid, field, mass, 2 * math.pi / (rate * grid.spacing)


def test_simulate_just_inside_the_aliasing_horizon_matches_a_doubled_grid():
    spec, grid, field, mass, t_alias = mg24_setup(512)
    fine = MomentumGrid(grid.p_min, grid.p_max, 2 * grid.n_points - 1)
    times = np.linspace(0.0, 0.99 * t_alias, 201)
    coarse_run = simulate(spec, grid, field, mass, times)
    fine_run = simulate(spec, fine, field, mass, times)
    recoil = abs(field.recoil_momentum)
    scale = recoil / mass * times[-1]
    assert np.abs(coarse_run.excited_population - fine_run.excited_population).max() <= 1e-12
    assert np.abs(coarse_run.mean_momentum - fine_run.mean_momentum).max() <= 1e-12 * recoil
    assert np.abs(coarse_run.mean_position - fine_run.mean_position).max() <= 1e-12 * scale


def test_simulate_refuses_runs_past_the_aliasing_horizon_or_float_phase():
    spec, grid, field, mass, t_alias = mg24_setup(512)
    with pytest.raises(DomainError, match="aliasing horizon"):
        simulate(spec, grid, field, mass, np.linspace(0.0, 1.01 * t_alias, 11))
    strong = LightField(field.wavelength, rabi=1e300)
    with pytest.raises(DomainError, match="rounding error"):
        simulate(spec, grid, strong, mass, [0.0, 1e-6])


# ------------------------------------------------------ simulate's worker split


def split_setup(n_times):
    """4096 grid points, so 4 time rows per chunk: 29 times make 8 chunks, 3 make one."""
    spec = packet(center_hbark=0.3, width_hbark=0.1, ground=0.6, excited=0.8j, x0=1e-6)
    field = LightField(RB87_WAVELENGTH, rabi=1e6, detuning=0.4e6)
    grid = MomentumGrid.for_packet(spec, n_points=4096)
    return spec, grid, field, np.linspace(0.0, 3 * field.period, n_times)


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def trajectory_bytes(trajectory):
    return [getattr(trajectory, f.name).tobytes() for f in dataclasses.fields(trajectory)]


@pytest.mark.parametrize("n_times, chunks", [(29, 8), (3, 1)])
@pytest.mark.parametrize("cpus", [2, 3, 7])
def test_simulate_gives_the_same_bytes_on_any_worker_count(
    monkeypatch, started_threads, cpus, n_times, chunks
):
    spec, grid, field, times = split_setup(n_times)
    monkeypatch.setattr(lightwalk.dynamics, "_usable_cpus", lambda: 1)
    serial = simulate(spec, grid, field, RB87_MASS, times)
    assert started_threads == []
    monkeypatch.setattr(lightwalk.dynamics, "_usable_cpus", lambda: cpus)
    spread = simulate(spec, grid, field, RB87_MASS, times)
    assert trajectory_bytes(spread) == trajectory_bytes(serial)
    # at most one helper per worker past the caller (a helper that is done takes the
    # next share); none with one chunk; none outlives the call
    workers = min(cpus, chunks)
    assert 0 < len(started_threads) < workers if workers > 1 else started_threads == []
    assert not any(thread.is_alive() for thread in started_threads)


def test_simulate_rows_survive_frequent_thread_switches(monkeypatch):
    # more workers than cores, switching every microsecond: a row written by two
    # workers, or lost by one, changes the bytes
    spec, grid, field, times = split_setup(401)
    monkeypatch.setattr(lightwalk.dynamics, "_usable_cpus", lambda: 1)
    serial = trajectory_bytes(simulate(spec, grid, field, RB87_MASS, times))
    monkeypatch.setattr(lightwalk.dynamics, "_usable_cpus", lambda: 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert trajectory_bytes(simulate(spec, grid, field, RB87_MASS, times)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_usable_cpus_counts_the_affinity_mask_not_the_host(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert lightwalk.dynamics._usable_cpus() == 2
    # only a platform without affinity masks falls back to the host count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert lightwalk.dynamics._usable_cpus() == 64


def fail_off_the_main_thread(monkeypatch, error):
    """Make np.cos raise ``error`` in every thread but the main one."""
    real_cos = np.cos

    def cos(x, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return real_cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", cos)


def test_a_helper_exception_leaves_simulate_after_every_helper_ends(
    monkeypatch, started_threads
):
    spec, grid, field, times = split_setup(29)
    monkeypatch.setattr(lightwalk.dynamics, "_usable_cpus", lambda: 3)
    fail_off_the_main_thread(monkeypatch, ValueError("helper failed"))
    with pytest.raises(ValueError, match="helper failed"):
        simulate(spec, grid, field, RB87_MASS, times)
    assert started_threads and not any(thread.is_alive() for thread in started_threads)


def test_a_helper_memory_error_exits_4(monkeypatch, started_threads, capsys):
    monkeypatch.setattr(lightwalk.dynamics, "_usable_cpus", lambda: 2)
    fail_off_the_main_thread(monkeypatch, MemoryError("no memory in a helper"))
    assert run(["simulate", "--species", "Rb-87", "--t-max", "1e-4"]) == (EXIT_DOMAIN, "")
    assert capsys.readouterr().err == "lightwalk: no memory in a helper\n"
    assert len(started_threads) == 1 and not started_threads[0].is_alive()


def test_helpers_keep_the_callers_float_error_policy(monkeypatch):
    spec, grid, field, times = split_setup(29)
    monkeypatch.setattr(lightwalk.dynamics, "_usable_cpus", lambda: 3)
    seen = []
    real_cos = np.cos

    def cos(x, *args, **kwargs):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        return real_cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", cos)
    with np.errstate(over="ignore", invalid="raise", divide="ignore", under="warn"):
        policy = np.geterr()
        simulate(spec, grid, field, RB87_MASS, times)
    helpers = [state for on_main, state in seen if not on_main]
    assert len(helpers) == 8 - 3  # chunks 1, 2, 4, 5 and 7
    assert all(state == policy for state in helpers)
    assert policy != np.geterr()


def test_strong_coupling_convergence():
    errors = []
    for ratio in (10.0, 100.0, 1000.0):
        spec, grid, field = strong_coupling_setup(ratio)
        times = np.linspace(0.0, 3 * field.period, 3 * 400 + 1)
        trajectory = simulate(spec, grid, field, RB87_MASS, times)
        closed = np.array(
            [closed_form_displacement(float(t), spec, field, RB87_MASS) for t in times]
        )
        scale = abs(field.recoil_momentum) * field.period / (2 * RB87_MASS)
        errors.append(float(np.abs(trajectory.mean_position - closed).max()) / scale)
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] < 0.01


# ------------------------------------------------------------- closed forms


def test_closed_form_displacement_values():
    lithium = embedded_table1().get("Li-7")
    mass = mass_to_si(lithium.mass_u)
    field = LightField(lithium.wavelength_nm * 1e-9, rabi=1e6)
    spec = WavepacketSpec(0.0, 1e-28)
    assert closed_form_displacement(0.0, spec, field, mass) == spec.initial_position
    # desk-scale walk: the drift term alone gives 1.77 um after 42 us, the
    # residual intra-period wiggle is bounded by recoil_momentum/(2 M rabi)
    wiggle = abs(field.recoil_momentum) / (2 * mass * field.rabi)
    x = closed_form_displacement(42e-6, spec, field, mass)
    assert abs(x - 1.7704e-6) <= wiggle + 1e-9


def test_closed_form_displacement_balanced_populations():
    field = resonant_field()
    spec = WavepacketSpec(
        0.4e-27, 1e-28, ground_amp=math.sqrt(0.5), excited_amp=math.sqrt(0.5), initial_position=2e-6
    )
    t = 17e-6
    assert closed_form_displacement(t, spec, field, RB87_MASS) == pytest.approx(
        2e-6 + spec.center_momentum * t / RB87_MASS, rel=1e-12
    )


def test_closed_forms_at_zero_coupling_are_free_flight():
    field = LightField(RB87_WAVELENGTH, rabi=0.0)
    spec = WavepacketSpec(1e-28, 1e-28, initial_position=2e-6)
    times = np.linspace(0.0, 1e-3, 11)
    free_velocity = spec.center_momentum / RB87_MASS
    assert closed_form_velocity(times, spec, field, RB87_MASS).tolist() == [free_velocity] * 11
    assert closed_form_velocity(1e-6, spec, field, RB87_MASS) == free_velocity
    position = closed_form_displacement(times, spec, field, RB87_MASS)
    assert position.tolist() == (2e-6 + spec.center_momentum * times / RB87_MASS).tolist()
    assert closed_form_displacement(1e-6, spec, field, RB87_MASS) == pytest.approx(
        2e-6 + free_velocity * 1e-6, rel=1e-15
    )


def test_closed_form_velocity_values():
    field = resonant_field()
    spec = WavepacketSpec(0.3e-27, 1e-28)
    assert closed_form_velocity(0.0, spec, field, RB87_MASS) == pytest.approx(
        spec.center_momentum / RB87_MASS, rel=1e-12
    )
    peak = closed_form_velocity(math.pi / field.rabi, WavepacketSpec(0.0, 1e-28), field, RB87_MASS)
    assert peak == pytest.approx(abs(field.recoil_momentum) / RB87_MASS, rel=1e-12)


def test_closed_form_velocity_period_mean_matches_average_speed():
    field = LightField(RB87_WAVELENGTH, rabi=1e6)
    spec = WavepacketSpec(0.0, 1e-28)
    times = np.linspace(0.0, field.period, 4097)
    velocity = np.array([closed_form_velocity(float(t), spec, field, RB87_MASS) for t in times])
    mean = float((0.5 * (velocity[1:] + velocity[:-1]) * np.diff(times)).sum()) / field.period
    assert mean == pytest.approx(average_speed(RB87), rel=1e-12)
    # periodicity
    assert closed_form_velocity(3.25 * field.period, spec, field, RB87_MASS) == pytest.approx(
        closed_form_velocity(0.25 * field.period, spec, field, RB87_MASS), rel=1e-9
    )


@pytest.mark.parametrize("closed_form", [closed_form_displacement, closed_form_velocity])
def test_closed_forms_over_an_array_equal_the_scalar_calls(closed_form):
    field = LightField(RB87_WAVELENGTH, rabi=1e6, direction=-1)
    spec = WavepacketSpec(0.3e-27, 1e-28, ground_amp=0.6, excited_amp=0.8, initial_position=1e-6)
    times = np.linspace(0.0, 3 * field.period, 601)
    swept = closed_form(times, spec, field, RB87_MASS)
    assert isinstance(swept, np.ndarray) and swept.shape == times.shape
    scalars = [closed_form(t, spec, field, RB87_MASS) for t in times.tolist()]
    assert all(type(x) is float for x in scalars)
    assert swept.tolist() == scalars
    assert "np.float64" not in repr(scalars[-1])
    assert type(closed_form(0, spec, field, RB87_MASS)) is float
    with pytest.raises(DomainError):
        closed_form(np.array([0.0, -1e-9]), spec, field, RB87_MASS)


def test_average_speed_reference_rows():
    catalog = embedded_table1()
    assert average_speed(catalog.get("Li-7")) == pytest.approx(0.042153, rel=5e-4)
    assert average_speed(catalog.get("Cs-133")) == pytest.approx(0.0017517, rel=5e-4)
    assert average_speed(catalog.get("U-238")) == pytest.approx(0.0023247, rel=5e-4)


def test_average_speed_balanced():
    species = embedded_table1().get("Rb-87")
    assert average_speed(species, 0.5) == 0.0
    with pytest.raises(DomainError):
        average_speed(species, 1.2)
    with pytest.raises(DomainError):
        average_speed(species, -0.2)
    # the excited fraction is derived; an old (ground, excited) call must not
    # bind the excited fraction to a later parameter
    with pytest.raises(TypeError):
        average_speed(species, 0.5, 0.5)


# ----------------------------------------------------------------- README


def test_readme_library_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert math.isfinite(float(printed.getvalue()))
