import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightwalk import (
    HBAR,
    Catalog,
    DomainError,
    LightField,
    Species,
    WavepacketSpec,
    average_speed,
    closed_form_displacement,
    closed_form_velocity,
    embedded_table1,
    evolve_block_numeric,
    mass_to_si,
    pairwise_gap,
    propagate,
    rk4_propagate,
    separation_report,
    speed_table,
    wavenumber,
)
from lightwalk.planner import _time_to_resolve, packet_width

CATALOG = embedded_table1()


species = CATALOG.get


def test_ground_fraction_validation():
    li, c = species("Li-7"), species("C-12")
    for fraction in (1.4, -0.4, math.nan):
        with pytest.raises(DomainError, match="ground fraction"):
            average_speed(li, fraction)
        with pytest.raises(DomainError, match="ground fraction"):
            pairwise_gap(li, c, 1e-6, ground_fraction=fraction)
        with pytest.raises(DomainError, match="ground fraction"):
            separation_report([li, c], 1e-6, ground_fraction=fraction)
    # the excited fraction is derived; an old (ground, excited) call must not
    # bind the excited fraction to a later parameter
    with pytest.raises(TypeError):
        average_speed(li, 0.3, 0.7)


def test_speed_table_values():
    table = speed_table(CATALOG)
    assert len(table) == 24
    assert table["U-238"] == pytest.approx(0.0023247, rel=5e-4)


def test_speed_table_against_reference_column():
    # regression guard for the verified state of the embedded dataset: every
    # row reproduces its reference speed to 0.005% except Eu-153, whose
    # reference entry is inconsistent with its own mass and wavelength by a
    # pinned 0.65% (see the validate command's table1-speeds detail)
    from lightwalk.validation import REFERENCE_SPEEDS

    for name, speed in speed_table(CATALOG).items():
        residual = abs(speed - REFERENCE_SPEEDS[name]) / REFERENCE_SPEEDS[name]
        if name == "Eu-153":
            assert 6.0e-3 < residual < 7.0e-3
        else:
            assert residual < 5e-5


def test_speed_halves_when_mass_doubles():
    base = Species("X-1", 10.0, "label", 500.0)
    heavy = Species("X-2", 20.0, "label", 500.0)
    catalog = Catalog((base, heavy), "synthetic")
    speeds = speed_table(catalog)
    assert speeds["X-2"] == pytest.approx(speeds["X-1"] / 2, rel=1e-12)


def test_speed_table_order_follows_catalog():
    reversed_catalog = Catalog(tuple(reversed(CATALOG.entries)), "reversed")
    forward = speed_table(CATALOG)
    backward = speed_table(reversed_catalog)
    assert forward == backward
    assert list(backward) == list(reversed_catalog.names())


def test_average_speed_population_flip():
    ground = average_speed(species("Rb-87"))
    inverted = average_speed(species("Rb-87"), 0.0)
    assert inverted == pytest.approx(-ground, rel=1e-12)


def test_pairwise_gap_reference_values():
    assert pairwise_gap(species("Mg-24"), species("Mg-25"), 42e-6) == pytest.approx(
        48.8e-9, abs=0.5e-9
    )
    assert pairwise_gap(species("U-238"), species("Yb-173"), 30e-6) == pytest.approx(
        7.8e-9, abs=0.2e-9
    )
    assert pairwise_gap(species("Rb-85"), species("Rb-87"), 500e-6) == pytest.approx(
        34.4e-9, abs=0.5e-9
    )


def test_pairwise_gap_basic_properties():
    a, b = species("Li-7"), species("C-12")
    assert pairwise_gap(a, b, 1e-5) == pairwise_gap(b, a, 1e-5)
    assert pairwise_gap(a, a, 3.0) == 0.0
    assert pairwise_gap(a, b, 0.0) == 0.0
    with pytest.raises(DomainError):
        pairwise_gap(a, b, -1.0)


@given(st.floats(min_value=1e-9, max_value=1.0), st.floats(min_value=1.0, max_value=64.0))
def test_pairwise_gap_linear_in_time(t, factor):
    a, b = species("Mg-24"), species("Mg-26")
    assert pairwise_gap(a, b, factor * t) == pytest.approx(
        factor * pairwise_gap(a, b, t), rel=1e-12
    )


def test_packet_width_limits():
    width = 1.5e-28
    spec = WavepacketSpec(0.0, width)
    mass = mass_to_si(CATALOG.get("Li-7").mass_u)
    sigma_p = width / math.sqrt(2)
    assert packet_width(spec, mass, 0.0) == pytest.approx(HBAR / (math.sqrt(2) * width), rel=1e-12)
    late = 1.0
    assert packet_width(spec, mass, late) == pytest.approx(sigma_p * late / mass, rel=1e-6)
    # exact ballistic identity
    t = 1e-4
    sigma = packet_width(spec, mass, t)
    residual = sigma**2 - packet_width(spec, mass, 0.0) ** 2 - (sigma_p * t / mass) ** 2
    assert abs(residual) <= 1e-12 * sigma**2


def test_separation_report_shape_and_flags():
    mixture = [species("Li-7"), species("C-12"), species("Mg-24")]
    report = separation_report(mixture, t=42e-6, kappa=2.0, momentum_width=1.7152e-28)
    assert len(report.pairs) == 3
    names = [(report.names[a], report.names[b]) for a, b in report.pairs]
    assert names == [("Li-7", "C-12"), ("Li-7", "Mg-24"), ("C-12", "Mg-24")]
    assert report.gap[0] == pytest.approx(2.4201e-6, rel=1e-3)
    assert report.resolvable[0]


def test_separation_report_identical_species():
    mixture = [species("Mg-24"), species("Mg-24")]
    report = separation_report(mixture, t=1.0, kappa=2.0, momentum_width=1e-28)
    assert report.gap[0] == 0.0
    assert not report.resolvable[0]
    assert math.isnan(report.time_required[0])


def test_separation_report_columns_equal_the_per_pair_scalar_path():
    mixture = list(CATALOG)
    t, kappa, momentum_width = 1e-4, 2.0, 9e-29
    spec = WavepacketSpec(0.0, momentum_width)
    masses = [mass_to_si(sp.mass_u) for sp in mixture]
    n = len(mixture)
    for ground_fraction in (1.0, 0.25):
        report = separation_report(mixture, t, kappa, momentum_width,
                                   ground_fraction=ground_fraction)
        assert [tuple(pair) for pair in report.pairs] == [
            (a, b) for a in range(n) for b in range(a + 1, n)
        ]
        never = 0
        for k, (a, b) in enumerate(report.pairs.tolist()):
            assert report.names[a] == mixture[a].name
            speed_gap = pairwise_gap(mixture[a], mixture[b], 1.0, ground_fraction=ground_fraction)
            gap = pairwise_gap(mixture[a], mixture[b], t, ground_fraction=ground_fraction)
            width_a = packet_width(spec, masses[a], t)
            width_b = packet_width(spec, masses[b], t)
            assert report.speed_gap[k] == speed_gap
            assert report.gap[k] == gap
            assert report.width_a[k] == width_a
            assert report.width_b[k] == width_b
            assert report.resolvable[k] == (gap >= kappa * (width_a + width_b))
            expected = _time_to_resolve(speed_gap, masses[a], masses[b], kappa, momentum_width)
            if expected is None:
                never += 1
                assert math.isnan(report.time_required[k])
            else:
                assert report.time_required[k] == expected
        assert 0 < never < len(report.pairs)


_SPEC = WavepacketSpec(center_momentum=0.0, momentum_width=1e-28)
_FIELD = LightField(780e-9, rabi=1e6, detuning=0.0, direction=1)
_MASS = mass_to_si(CATALOG.get("Rb-87").mass_u)
_TIMED_CALLS = {
    "pairwise_gap": lambda t: pairwise_gap(species("Li-7"), species("C-12"), t),
    "packet_width": lambda t: packet_width(_SPEC, _MASS, t),
    "separation_report": lambda t: separation_report([species("Li-7"), species("C-12")], t),
    "closed_form_displacement": lambda t: closed_form_displacement(t, _SPEC, _FIELD, _MASS),
    "closed_form_velocity": lambda t: closed_form_velocity(t, _SPEC, _FIELD, _MASS),
    "propagate": lambda t: propagate(1.0, 0.0, 0.0, _FIELD, _MASS, t),
    "rk4_propagate": lambda t: rk4_propagate([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], t, 1e-9),
    "evolve_block_numeric": lambda t: evolve_block_numeric(1.0, 0.0, 0.0, _FIELD, _MASS, t, 1e-9),
}


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_TIMED_CALLS))
def test_time_must_be_finite(name, t):
    # each returned nan (or raised a bare ValueError) instead of refusing the time
    with pytest.raises(DomainError):
        _TIMED_CALLS[name](t)


def test_separation_report_validation():
    with pytest.raises(DomainError):
        separation_report([species("Li-7")], t=1e-6)
    mixture = [species("Li-7"), species("C-12")]
    with pytest.raises(DomainError):
        separation_report(mixture, t=-1.0)
    with pytest.raises(DomainError):
        separation_report(mixture, t=1.0, kappa=0.0)
    with pytest.raises(DomainError):
        separation_report(mixture, t=1.0, kappa=math.inf)
    with pytest.raises(DomainError):
        separation_report(mixture, t=1.0, momentum_width=-1e-28)


def test_time_required_satisfies_defining_equation():
    momentum_width = 1.7152e-28
    kappa = 2.0
    mixture = [species("Li-7"), species("C-12")]
    report = separation_report(mixture, t=1e-6, kappa=kappa, momentum_width=momentum_width)
    time_required = float(report.time_required[0])
    assert not math.isnan(time_required)
    spec = WavepacketSpec(0.0, momentum_width)
    mass_li = mass_to_si(CATALOG.get("Li-7").mass_u)
    mass_c = mass_to_si(CATALOG.get("C-12").mass_u)
    widths = packet_width(spec, mass_li, time_required) + packet_width(
        spec, mass_c, time_required
    )
    gap = pairwise_gap(mixture[0], mixture[1], time_required)
    assert gap == pytest.approx(kappa * widths, rel=1e-6)
    # resolvability is monotone past the threshold
    later = separation_report(mixture, t=2 * time_required, kappa=kappa,
                              momentum_width=momentum_width)
    earlier = separation_report(mixture, t=0.5 * time_required, kappa=kappa,
                                momentum_width=momentum_width)
    assert later.resolvable[0]
    assert not earlier.resolvable[0]

    # the bisection stops once its bracket is two adjacent floats; the plain
    # 80-step loop must give the same float for every pair
    def plain_bisection(speed_gap, mass_a, mass_b, width):
        spec = WavepacketSpec(0.0, width)

        def shortfall(t):
            return speed_gap * t - kappa * (packet_width(spec, mass_a, t)
                                            + packet_width(spec, mass_b, t))

        lo, hi = 0.0, 10.0
        while shortfall(hi) < 0.0:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if shortfall(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
        return hi

    members = list(CATALOG)
    rb = [species("Rb-85"), species("Rb-87")]
    rb_width = 1e-4 * HBAR * sum(wavenumber(sp.wavelength_nm * 1e-9) for sp in rb) / 2
    cases = [(a, b, momentum_width) for i, a in enumerate(members) for b in members[i + 1:]]
    cases.append((*rb, rb_width))
    resolved = []
    for a, b, width in cases:
        speed_gap = abs(average_speed(a) - average_speed(b))
        masses = mass_to_si(a.mass_u), mass_to_si(b.mass_u)
        t_star = _time_to_resolve(speed_gap, *masses, kappa, width)
        if t_star is not None:
            assert t_star == plain_bisection(speed_gap, *masses, width), (a.name, b.name)
            resolved.append(t_star)
    assert len(cases) == 277
    assert len(resolved) == 194  # the others spread faster than they drift apart
    assert resolved[-1] > 10.0  # Rb-85/Rb-87 at 1e-4 hbar k resolves only after 10 s


def test_time_required_none_when_spreading_wins():
    # a packet this narrow in position space spreads faster than the pair drifts apart
    report = separation_report(
        [species("Mg-24"), species("Mg-25")], t=42e-6, kappa=2.0, momentum_width=1e-26
    )
    assert math.isnan(report.time_required[0])
    assert not report.resolvable[0]

