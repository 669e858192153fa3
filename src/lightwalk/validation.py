"""Acceptance suite: self-contained checks behind the ``validate`` command.

Each check returns a :class:`CheckResult`; the CLI prints one PASS/FAIL
line per check and the pytest acceptance module asserts them. Reference
values that the checks compare against (the published speed column, the
figure-scale displacement gaps) live here and nowhere else; the catalog
itself never stores speeds.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .catalog import CATALOG_HEADER, embedded_table1, parse_catalog, serialize_catalog
from .constants import HBAR, mass_to_si, wavenumber
from .dynamics import (
    LightField,
    MomentumGrid,
    WavepacketSpec,
    bare_frequencies,
    block_detuning,
    closed_form_displacement,
    closed_form_velocity,
    dressed_frequencies,
    propagate,
    simulate,
)
from .errors import CatalogError
from .oracle import evolve_block_numeric
from .planner import average_speed, pairwise_gap

# Reference speed column of the embedded dataset, m/s, keyed by species.
# The published Eu-153 entry does not follow from its own printed mass and
# wavelength: it is h/(2 M lambda) at the Eu-152 mass. It is kept verbatim,
# so ``validate`` reports table1-speeds red and names that row; the
# acceptance test asserts that verdict and its cause.
REFERENCE_SPEEDS = {
    "Li-7": 0.042153,
    "C-12": 0.099775,
    "Ne-20": 0.01583,
    "Mg-24": 0.0290,
    "Mg-25": 0.027838,
    "Mg-26": 0.02677,
    "Si-28": 0.028202,
    "Ca-40": 0.011745,
    "Ti-48": 0.0082515,
    "Fe-56": 0.014282,
    "Co-59": 0.0095446,
    "Ga-69": 0.0071367,
    "Rb-85": 0.0029952,
    "Rb-87": 0.0029264,
    "Sr-87": 0.0049544,
    "Nb-93": 0.0060399,
    "Ag-107": 0.0056564,
    "Cd-114": 0.0076122,
    "In-115": 0.0042092,
    "Cs-133": 0.0017517,
    "Eu-153": 0.0028011,
    "Yb-173": 0.0020645,
    "Au-197": 0.0037639,
    "U-238": 0.0023247,
}

RB_GAP_NOTE = (
    "NOTE: Rb-85/Rb-87 gap at 500 us computed from the embedded masses and "
    "wavelengths is 34.4 nm; the commonly quoted ~50 nm for this pair is not "
    "reproducible from the same data and is deliberately not matched"
)

EU_NOTE = (
    "the Eu-153 reference speed 0.0028011 m/s is inconsistent with its own "
    "mass and wavelength (it back-solves to the Eu-152 mass 151.9218 u); "
    "h/(2 M lambda) gives 0.0027828 m/s, a 0.65% residual"
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def format_line(result: CheckResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status} {result.name}: {result.detail}"


def _reference_field(rabi: float = 1.0e6, shift: float = 0.0) -> tuple[LightField, float]:
    """Rb-87-like field tuned so the p=0 block shift equals ``shift``."""
    species = embedded_table1().get("Rb-87")
    mass_kg = mass_to_si(species.mass_u)
    wavelength = species.wavelength_nm * 1e-9
    recoil_rate = HBAR * wavenumber(wavelength) ** 2 / (2.0 * mass_kg)
    field = LightField(wavelength, rabi=rabi, detuning=shift - recoil_rate)
    return field, mass_kg


def check_table1_speeds() -> CheckResult:
    """Golden speeds: h/(2 M lambda) matches the reference column to 0.05%."""
    started = time.perf_counter()
    catalog = embedded_table1()
    residuals = {
        sp.name: abs(average_speed(sp) - REFERENCE_SPEEDS[sp.name])
        / REFERENCE_SPEEDS[sp.name]
        for sp in catalog
    }
    elapsed = time.perf_counter() - started
    failing = {name: r for name, r in residuals.items() if r > 5e-4}
    within = {name: r for name, r in residuals.items() if name not in failing}
    passed = not failing and elapsed < 1.0
    detail = f"{len(within)}/{len(residuals)} rows within 0.05%"
    if within:
        worst = max(within, key=within.get)
        detail += (
            f" (worst of those {within[worst]:.2e})" if failing
            else f" (worst {within[worst]:.2e}, {worst})"
        )
    if failing:
        detail += (
            "; " + "; ".join(f"{n} off by {r:.2%}" for n, r in sorted(failing.items()))
            + f" -- {EU_NOTE}"
        )
    return CheckResult("table1-speeds", passed, detail + f"; {elapsed:.2f}s")


def check_oracle_equivalence() -> CheckResult:
    """Analytic block evolution vs RK4 cross-check, plus 4th-order scaling."""
    started = time.perf_counter()
    rng = np.random.default_rng(20250809)
    rabi = 1.0e6
    period = 2.0 * math.pi / rabi
    worst_error = 0.0
    for ratio in (0.0, 0.5, 2.0):
        field, mass_kg = _reference_field(rabi, shift=ratio * rabi)
        inits = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        inits /= np.linalg.norm(inits, axis=1, keepdims=True)
        ground, excited = inits[:, 0], inits[:, 1]
        elapsed_t = 0.0
        for checkpoint in (2, 4, 6, 8, 10):
            target = checkpoint * period
            ground, excited = evolve_block_numeric(
                ground, excited, 0.0, field, mass_kg, target - elapsed_t, 0.002 / rabi
            )
            elapsed_t = target
            exact = propagate(inits[:, 0], inits[:, 1], 0.0, field, mass_kg, target)
            error = np.abs(np.subtract((ground, excited), exact)).max()
            worst_error = max(worst_error, float(error))

    # 4th-order convergence, measured on the stiffest of the three ratios
    field, mass_kg = _reference_field(rabi, shift=2.0 * rabi)
    split = float(np.hypot(2.0 * rabi, rabi))
    exact_vec = np.array(propagate(1.0, 0.0, 0.0, field, mass_kg, 10 * period))
    errors = []
    for dt in (0.02 / split, 0.01 / split):
        numeric = evolve_block_numeric(1.0, 0.0, 0.0, field, mass_kg, 10 * period, dt)
        errors.append(float(np.abs(np.array(numeric) - exact_vec).max()))
    factor = errors[0] / errors[1]
    elapsed = time.perf_counter() - started
    passed = worst_error < 1e-8 and 12.0 <= factor <= 20.0 and elapsed < 10.0
    detail = (
        f"max amplitude error {worst_error:.2e} over 10 periods x 3 shift ratios "
        f"x 100 inits; halving dt shrinks the error {factor:.1f}x; {elapsed:.1f}s"
    )
    return CheckResult("oracle-equivalence", passed, detail)


def check_strong_coupling() -> CheckResult:
    """Full grid simulation against the strong-coupling closed forms."""
    started = time.perf_counter()
    species = embedded_table1().get("Rb-87")
    mass_kg = mass_to_si(species.mass_u)
    wavelength = species.wavelength_nm * 1e-9
    recoil = HBAR * wavenumber(wavelength)
    spec = WavepacketSpec(center_momentum=0.0, momentum_width=0.05 * recoil)
    grid = MomentumGrid.for_packet(spec, half_span=6.0, n_points=4096)
    probe = LightField(wavelength, rabi=1.0, detuning=0.0)
    max_shift = float(np.abs(block_detuning(grid.points(), probe, mass_kg)).max())
    field = LightField(wavelength, rabi=100.0 * max_shift, detuning=0.0)
    period = field.period
    times = np.linspace(0.0, 3.0 * period, 3 * 200 + 1)
    trajectory = simulate(spec, grid, field, mass_kg, times)
    drift_speed = HBAR * abs(field.wavenumber) / (2.0 * mass_kg)
    position_gap = trajectory.mean_position - closed_form_displacement(times, spec, field, mass_kg)
    velocity_gap = trajectory.mean_velocity - closed_form_velocity(times, spec, field, mass_kg)
    displacement_err = float(np.abs(position_gap).max()) / (drift_speed * period)
    velocity_err = float(np.abs(velocity_gap).max()) / drift_speed
    mean_speed = (trajectory.mean_position[-1] - trajectory.mean_position[0]) / times[-1]
    expected = average_speed(species)
    speed_err = abs(mean_speed - expected) / expected
    elapsed = time.perf_counter() - started
    passed = displacement_err < 1e-2 and velocity_err < 1e-2 and speed_err < 5e-3 and elapsed < 30.0
    detail = (
        f"displacement within {displacement_err:.2e} of one period's drift "
        f"(gate 1e-2); velocity within {velocity_err:.2e} of the drift speed (gate 1e-2); "
        f"period-averaged speed off by {speed_err:.2e} (gate 5e-3); {elapsed:.1f}s"
    )
    return CheckResult("strong-coupling-forms", passed, detail)


def check_conservation() -> CheckResult:
    """Norms along trajectories, per-block norms, spectral identities."""
    rng = np.random.default_rng(11)
    field, mass_kg = _reference_field(rabi=1.0e6, shift=0.3e6)
    recoil = abs(field.recoil_momentum)

    spec = WavepacketSpec(center_momentum=0.2 * recoil, momentum_width=0.05 * recoil)
    grid = MomentumGrid.for_packet(spec, n_points=1024)
    times = np.linspace(0.0, 3.0 * field.period, 301)
    trajectory = simulate(spec, grid, field, mass_kg, times)
    norm_drift = float(np.abs(trajectory.norm - 1.0).max())

    momenta = rng.uniform(-10.0 * recoil, 10.0 * recoil, size=200)
    raw = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    t = rng.uniform(0, 20, size=200) * field.period
    ground, excited = propagate(raw[:, 0], raw[:, 1], momenta, field, mass_kg, t)
    drift = abs(ground) ** 2 + abs(excited) ** 2 - abs(raw[:, 0]) ** 2 - abs(raw[:, 1]) ** 2
    block_drift = float(np.abs(drift).max())

    p = rng.uniform(-10.0 * recoil, 10.0 * recoil, size=10_000)
    low, high = dressed_frequencies(p, field, mass_kg)
    # reference from the bare frequencies, not from the dressed frame under test
    w_ground, w_excited = bare_frequencies(p, field, mass_kg)
    trace = w_ground + w_excited
    split = np.hypot(w_excited - w_ground, field.rabi)
    sum_err = float(np.abs((low + high - trace) / trace).max())
    diff_err = float(np.abs((high - low - split) / split).max())

    passed = (
        norm_drift < 1e-9 and block_drift < 1e-12 and sum_err < 1e-12 and diff_err < 1e-12
    )
    detail = (
        f"trajectory norm drift {norm_drift:.1e} (gate 1e-9); per-block norm "
        f"drift {block_drift:.1e} (gate 1e-12); spectral identities to "
        f"{max(sum_err, diff_err):.1e} on 1e4 random blocks (gate 1e-12)"
    )
    return CheckResult("conservation", passed, detail)


def check_figure3_gaps() -> CheckResult:
    """Desk-scale displacement gaps from the period-averaged speeds."""
    catalog = embedded_table1()

    cases = [
        ("Mg-24", "Mg-25", 42e-6, 48.8e-9, 0.5e-9),
        ("U-238", "Yb-173", 30e-6, 7.8e-9, 0.2e-9),
        ("Rb-85", "Rb-87", 500e-6, 34.4e-9, 0.5e-9),
    ]
    passed = True
    parts = []
    for name_a, name_b, t, expected, tol in cases:
        value = pairwise_gap(catalog.get(name_a), catalog.get(name_b), t)
        ok = abs(value - expected) <= tol
        passed = passed and ok
        parts.append(f"{name_a}/{name_b}@{t * 1e6:g}us = {value * 1e9:.2f} nm")
    detail = "; ".join(parts) + f"; {RB_GAP_NOTE}"
    return CheckResult("figure3-gaps", passed, detail)


def check_resonant_rabi() -> CheckResult:
    """Resonant block flops as sin^2 of half the coupling phase."""
    rabi = 1.0e6
    field, mass_kg = _reference_field(rabi, shift=0.0)
    period = 2.0 * math.pi / rabi

    times = np.linspace(0.0, 2.0 * period, 41)
    _, excited = propagate(1.0, 0.0, 0.0, field, mass_kg, times)
    analytic_err = float(np.abs(np.abs(excited) ** 2 - np.sin(rabi * times / 2.0) ** 2).max())

    dt = 0.002 / rabi
    pulses = np.array([0.25, 0.5, 1.0, 1.75]) * period
    _, excited = evolve_block_numeric(1.0, 0.0, 0.0, field, mass_kg, pulses, dt)
    oracle_err = float(np.abs(np.abs(excited) ** 2 - np.sin(rabi * pulses / 2.0) ** 2).max())
    _, half_period = evolve_block_numeric(1.0, 0.0, 0.0, field, mass_kg, math.pi / rabi, dt)
    transfer_defect = abs(abs(half_period) ** 2 - 1.0)

    passed = analytic_err < 1e-9 and oracle_err < 1e-8 and transfer_defect < 1e-8
    detail = (
        f"analytic population error {analytic_err:.1e} (gate 1e-9); oracle "
        f"{oracle_err:.1e} (gate 1e-8); full transfer defect at the half-period "
        f"pulse {transfer_defect:.1e}"
    )
    return CheckResult("resonant-rabi", passed, detail)


def _random_catalogs(rng: np.random.Generator, count: int) -> tuple[np.ndarray, Iterator[str]]:
    """Row counts (0 to 11) and texts of ``count`` random catalogs.

    Each field is one draw over the rows of all catalogs, in this order:
    row counts, masses U(1, 300) u, wavelengths U(100, 2000) nm, the two
    integers of the transition label and the integer of the name. The rows
    are written 64 catalogs at a time, when the iterator reaches them.
    """
    rows = rng.integers(0, 12, size=count)
    total = int(rows.sum())
    bounds = np.concatenate(([0], np.cumsum(rows)))
    columns = (
        np.arange(total) - np.repeat(bounds[:-1], rows),  # each row's index in its catalog
        rng.uniform(1.0, 300.0, total),
        rng.uniform(100.0, 2000.0, total),
        rng.integers(1, 8, total),
        rng.integers(1, 4, total),
        rng.integers(1, 300, total),
    )

    def texts() -> Iterator[str]:
        # one comprehension per block: a catalog has too few rows to pay for its own slices
        for lo in range(0, count, 64):
            first, last = bounds[lo], bounds[min(lo + 64, count)]
            lines = iter([
                f"Sp{i}-{suffix},{mass!r},{shell}s {term}S1/2,{wavelength!r}\n"
                for i, mass, wavelength, shell, term, suffix in zip(
                    *(column[first:last].tolist() for column in columns))
            ])
            for n in rows[lo:lo + 64].tolist():
                yield CATALOG_HEADER + "\n" + "".join(itertools.islice(lines, n))

    return rows, texts()


def check_catalog_roundtrip() -> CheckResult:
    """Parse then serialize gives each catalog text back byte for byte; bad lines are located.

    The texts are written as ``serialize_catalog`` writes them, so the check
    asserts ``serialize_catalog(parse_catalog(text)) == text``. That implies
    ``parse(serialize(c)) == c`` for ``c = parse(text)``, since ``serialize(c)``
    is then ``text`` and the parser is a pure function. Unlike that property,
    it also fails a parser that loses digits before the serializer sees them.
    """
    roundtrips, trials = 1000, 50
    rng = np.random.default_rng(7)
    rows, texts = _random_catalogs(rng, roundtrips + trials)
    # a bad line goes anywhere after the header: position p makes it line p + 1
    positions = rng.integers(1, rows[roundtrips:] + 2).tolist()
    mismatches = sum(serialize_catalog(parse_catalog(text)) != text
                     for text in itertools.islice(texts, roundtrips))

    bad_line_hits = 0
    for text, position in zip(texts, positions):
        lines = text.splitlines()
        lines.insert(position, "Bad-1,not_a_number,label,500.0")
        try:
            parse_catalog("\n".join(lines) + "\n")
        except CatalogError as exc:
            if exc.line == position + 1:
                bad_line_hits += 1
    passed = mismatches == 0 and bad_line_hits == trials
    detail = (
        f"{roundtrips} randomized catalogs round-trip field-exactly ({mismatches} "
        f"mismatches); {bad_line_hits}/{trials} malformed lines rejected with "
        f"the correct line number"
    )
    return CheckResult("catalog-roundtrip", passed, detail)


def check_cli_determinism() -> CheckResult:
    """Identical flags produce byte-identical output."""
    from . import cli  # deferred: cli imports this module for `validate`

    commands = [
        ["speeds"],
        ["bands", "--species", "Rb-87", "--points", "64"],
        ["simulate", "--species", "Mg-24", "--t-max", "2e-6", "--steps", "50"],
        ["separate", "--pair", "Mg-24,Mg-25,Mg-26", "--t", "42e-6"],
    ]
    stable = True
    for argv in commands:
        code_a, out_a = cli.run(argv)
        code_b, out_b = cli.run(argv)
        if code_a != 0 or code_b != 0 or out_a.encode() != out_b.encode():
            stable = False
    detail = f"{len(commands)} commands re-run byte-identically" if stable else (
        "output differed between identical runs"
    )
    return CheckResult("cli-determinism", stable, detail)


# the checks by name, in the order ``validate`` runs and prints them
ALL_CHECKS: dict[str, Callable[[], CheckResult]] = {
    "table1-speeds": check_table1_speeds,
    "oracle-equivalence": check_oracle_equivalence,
    "strong-coupling-forms": check_strong_coupling,
    "conservation": check_conservation,
    "figure3-gaps": check_figure3_gaps,
    "resonant-rabi": check_resonant_rabi,
    "catalog-roundtrip": check_catalog_roundtrip,
    "cli-determinism": check_cli_determinism,
}


def run_checks(names: Sequence[str] | None = None) -> list[CheckResult]:
    """Run each named check once, in the order first named, or every check in ALL_CHECKS."""
    return [ALL_CHECKS[name]() for name in dict.fromkeys(names or ALL_CHECKS)]
