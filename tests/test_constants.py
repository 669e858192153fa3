import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightwalk import (
    CONSTANT_SETS,
    HBAR,
    H_PLANCK,
    U_CODATA,
    U_ROUNDED,
    DomainError,
    average_speed,
    embedded_table1,
    mass_to_si,
    wavenumber,
)


def test_hbar_consistency():
    assert HBAR == pytest.approx(H_PLANCK / (2 * math.pi), rel=1e-15)


def test_constant_set_values():
    # a constant set is its atomic mass unit
    assert CONSTANT_SETS == {"paper": U_ROUNDED, "codata": U_CODATA}
    assert U_ROUNDED == 1.67e-27
    assert U_CODATA == 1.66053906660e-27
    assert H_PLANCK == 6.62607015e-34


def test_mass_to_si():
    assert mass_to_si(1.0, U_ROUNDED) == pytest.approx(1.67e-27, rel=1e-15)
    assert mass_to_si(7.016004, U_ROUNDED) == pytest.approx(1.171672668e-26, rel=1e-9)
    assert mass_to_si(1.0, U_CODATA) == U_CODATA


@pytest.mark.parametrize("bad", [0.0, -1.0, -7.0])
def test_mass_to_si_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        mass_to_si(bad)


@pytest.mark.parametrize(
    "mass_u, amu",
    [(1e-320, U_ROUNDED), (1e-290, U_ROUNDED), (1.0, -1.67e-27), (-1.0, -1.67e-27)],
)
def test_mass_to_si_rejects_a_non_positive_product(mass_u, amu):
    # 1e-320 u underflows to 0 kg, which speeds would divide by; 1e-290 u is a
    # subnormal kg mass, whose inverse overflows and whose digits are rounding noise
    with pytest.raises(DomainError):
        mass_to_si(mass_u, amu=amu)


@pytest.mark.parametrize("mass_u, amu", [(math.inf, U_ROUNDED), (1e300, 1e10)])
def test_mass_to_si_refuses_an_infinite_kg_mass(mass_u, amu):
    # an infinite mass would give a drift speed of exactly 0 m/s
    with pytest.raises(DomainError):
        mass_to_si(mass_u, amu=amu)


def test_wavenumber_refuses_an_infinite_wavelength():
    with pytest.raises(DomainError):
        wavenumber(math.inf)


def test_wavenumber_values():
    assert wavenumber(2 * math.pi) == pytest.approx(1.0, rel=1e-15)
    assert wavenumber(780.027e-9) == pytest.approx(8.0550869e6, rel=1e-7)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_wavenumber_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        wavenumber(bad)


@given(st.floats(min_value=1e-12, max_value=1e3, allow_nan=False))
def test_wavenumber_round_trip(wavelength):
    assert abs(wavenumber(wavelength) * wavelength / (2 * math.pi) - 1.0) < 1e-14


def test_constant_set_speed_sensitivity():
    # switching u between the sets rescales every speed by the same factor
    expected = U_ROUNDED / U_CODATA - 1.0
    for species in embedded_table1():
        v_paper = average_speed(species, amu=U_ROUNDED)
        v_codata = average_speed(species, amu=U_CODATA)
        change = v_codata / v_paper - 1.0
        assert change == pytest.approx(expected, rel=1e-12)
        assert abs(change) < 7e-3
