import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightwalk import (
    CODATA_CONSTANTS,
    PAPER_CONSTANTS,
    DomainError,
    PhysicalConstants,
    average_speed,
    embedded_table1,
    mass_to_si,
    wavenumber,
)


def test_hbar_consistency():
    for consts in (PAPER_CONSTANTS, CODATA_CONSTANTS):
        assert consts.hbar == pytest.approx(consts.h / (2 * math.pi), rel=1e-15)


def test_constant_set_values():
    assert PAPER_CONSTANTS.u == 1.67e-27
    assert CODATA_CONSTANTS.u == 1.66053906660e-27
    assert PAPER_CONSTANTS.h == CODATA_CONSTANTS.h == 6.62607015e-34
    assert PAPER_CONSTANTS.set_tag == "paper"
    assert CODATA_CONSTANTS.set_tag == "codata"


def test_inconsistent_hbar_rejected():
    with pytest.raises(DomainError):
        PhysicalConstants(h=6.6e-34, hbar=1.0e-34, u=1.67e-27, set_tag="bad")


def test_mass_to_si():
    assert mass_to_si(1.0, PAPER_CONSTANTS) == pytest.approx(1.67e-27, rel=1e-15)
    assert mass_to_si(7.016004, PAPER_CONSTANTS) == pytest.approx(1.171672668e-26, rel=1e-9)


@pytest.mark.parametrize("bad", [0.0, -1.0, -7.0])
def test_mass_to_si_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        mass_to_si(bad)


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
    expected = PAPER_CONSTANTS.u / CODATA_CONSTANTS.u - 1.0
    for species in embedded_table1():
        v_paper = average_speed(species, consts=PAPER_CONSTANTS)
        v_codata = average_speed(species, consts=CODATA_CONSTANTS)
        change = v_codata / v_paper - 1.0
        assert change == pytest.approx(expected, rel=1e-12)
        assert abs(change) < 7e-3
