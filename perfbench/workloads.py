"""The benchmark's three workloads: seeded inputs, the command line of one op,
and the check of its output.

Every op is one closed-loop client request: the benchmark calls
``lightwalk.cli.run`` (the path of the ``lightwalk`` command) and waits for
the document before it draws the next op. The program sees only argv and,
for ``separation``, a catalog file the benchmark wrote. A check returns
None when the output is correct and otherwise a one-line reason.
"""

from __future__ import annotations

import functools
import math
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import reference
from spans import CHECK_NAMES

# trajectory: constant work per op, 200 samples per fastest effective Rabi period
STEPS = 512
GRID_POINTS = 4096
RABI = 1.0e6
WIDTH_HBARK = 0.05
HALF_SPAN = 6.0
SAMPLES_PER_PERIOD = 200

# separation: fixed row count, so every op has the same number of pairs
N_SPECIES = 40
KAPPA = 2.0

# Output tolerances. The CLI prints 9 significant digits; on top of that
# rounding, values must agree with the reference to within these.
NORM_TOL = 1e-9  # |norm - 1|
MOMENTUM_TOL = 1e-9  # units of hbar k
POPULATION_TOL = 1e-9
# Mean position, in units of (hbar k / M) t_max, against the reference's exact
# time integral. A trapezoid integral over 200 samples per period is off by
# up to 3e-6 of it; a position lagging by one sample is off by about 2e-3.
POSITION_TOL = 1e-4
SEPARATION_RTOL = 1e-9


class Op(NamedTuple):
    calls: list[list[str]]  # argv of each cli.run call of the op
    work: int  # in the workload's work unit
    check: Callable[[list[tuple[int, str]]], str | None]


def _within(out, ref, atol) -> np.ndarray:
    """|out - ref| <= atol plus half a unit in the 9th significant digit of ref."""
    ref = np.asarray(ref, dtype=float)
    size = np.abs(ref)
    digit = np.where(size > 0, 10.0 ** (np.floor(np.log10(np.where(size > 0, size, 1.0))) - 8), 0.0)
    return np.abs(np.asarray(out, dtype=float) - ref) <= atol + 0.5 * digit


def _csv(document: str, header: str) -> list[list[str]] | str:
    lines = document.splitlines()
    if not lines or lines[0] != header:
        return f"header is {lines[0] if lines else ''!r}, expected {header!r}"
    return [line.split(",") for line in lines[1:]]


class Trajectory:
    name = "trajectory"
    work_unit = "block-samples"
    probe = "vector"  # kind of work, for the machine-speed meter
    header = "t_s,mean_p_kgmps,mean_v_mps,mean_x_m,norm,pop_excited"

    def __init__(self, package, run_dir: Path) -> None:
        self.species = [(sp.name, sp.mass_u, sp.wavelength_nm)
                        for sp in package.catalog.embedded_table1()]

    def warm_argv(self) -> list[str]:
        return ["simulate", "--species", "Rb-87", "--t-max", "1e-6", "--steps", "2",
                "--grid-points", "64"]

    def make_op(self, rng: np.random.Generator, traced: bool) -> Op:
        name, mass_u, wavelength_nm = self.species[int(rng.integers(len(self.species)))]
        detuning = 0.0 if rng.random() < 0.5 else float(rng.uniform(-2.0, 2.0)) * RABI
        center = float(rng.uniform(-1.0, 1.0))
        c0sq = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0))
        split = reference.fastest_split(mass_u, wavelength_nm, RABI, detuning, center,
                                        WIDTH_HBARK, HALF_SPAN)
        t_max = STEPS / SAMPLES_PER_PERIOD * 2.0 * math.pi / split
        argv = [
            "simulate", "--species", name, f"--omega={RABI!r}", f"--delta={detuning!r}",
            f"--pi-hbark={WIDTH_HBARK!r}", f"--pc-hbark={center!r}", f"--c0sq={c0sq!r}",
            f"--t-max={t_max!r}", f"--steps={STEPS}", f"--grid-points={GRID_POINTS}",
            f"--grid-span={HALF_SPAN!r}",
        ]
        check = functools.partial(
            self.check, mass_u=mass_u, wavelength_nm=wavelength_nm, detuning=detuning,
            center=center, c0sq=c0sq, t_max=t_max,
        )
        return Op([argv], GRID_POINTS * (STEPS + 1), check)

    def check(self, results, *, mass_u, wavelength_nm, detuning, center, c0sq, t_max):
        code, document = results[0]
        if code != 0:
            return f"exit code {code}"
        rows = _csv(document, self.header)
        if isinstance(rows, str):
            return rows
        table = np.array(rows, dtype=float)
        if table.shape != (STEPS + 1, 6):
            return f"table shape {table.shape}, expected {(STEPS + 1, 6)}"
        t, p, v, x, norm, pop = table.T
        times = np.linspace(0.0, t_max, STEPS + 1)
        ref = reference.trajectory(mass_u, wavelength_nm, RABI, detuning, center, WIDTH_HBARK,
                                   c0sq, times, HALF_SPAN, GRID_POINTS)
        position_scale = ref["recoil"] / ref["mass_kg"] * t_max
        problems = [
            ("t_s differs from the requested times", _within(t, times, 1e-12 * t_max)),
            (f"norm is more than {NORM_TOL:g} from 1", np.abs(norm - 1.0) <= NORM_TOL),
            ("pop_excited lies outside [0, 1]", (pop >= 0.0) & (pop <= 1.0)),
            ("mean_v_mps x M differs from mean_p_kgmps",
             np.abs(v * ref["mass_kg"] - p) <= 2e-8 * np.abs(p)),
            ("mean_p_kgmps differs from the reference",
             _within(p, ref["mean_p"], MOMENTUM_TOL * ref["recoil"])),
            ("pop_excited differs from the reference",
             _within(pop, ref["pop_excited"], POPULATION_TOL)),
            ("mean_x_m differs from the reference",
             _within(x, ref["mean_x"], POSITION_TOL * position_scale)),
        ]
        for reason, ok in problems:
            if not np.all(ok):
                return f"{reason} (first at row {int(np.argmin(ok)) + 1})"
        return None


class Separation:
    name = "separation"
    work_unit = "pairs"
    probe = "scalar"
    header = "name_a,name_b,dvbar_mps,gap_m,width_a_m,width_b_m,resolvable,t_required_s"

    def __init__(self, package, run_dir: Path) -> None:
        self.path = run_dir / "catalog.csv"
        self.warm_path = run_dir / "warm-catalog.csv"
        self.warm_path.write_text(
            "name,mass_u,transition,wavelength_nm\nA-1,10.0,x,500.0\nB-2,20.0,x,600.0\n",
            encoding="utf-8",
        )

    def warm_argv(self) -> list[str]:
        return ["separate", "--catalog", str(self.warm_path), "--t", "1e-4"]

    def make_op(self, rng: np.random.Generator, traced: bool) -> Op:
        # Rows are drawn like the acceptance suite's random catalogs; the
        # row index in each name keeps the names unique.
        lines = ["name,mass_u,transition,wavelength_nm"]
        names, masses, wavelengths = [], [], []
        for i in range(N_SPECIES):
            mass = float(rng.uniform(1.0, 300.0))
            wavelength = float(rng.uniform(100.0, 2000.0))
            label = f"{int(rng.integers(1, 8))}s {int(rng.integers(1, 4))}S1/2"
            names.append(f"Sp{i}-{int(rng.integers(1, 300))}")
            masses.append(mass)
            wavelengths.append(wavelength)
            lines.append(f"{names[-1]},{mass!r},{label},{wavelength!r}")
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        t = float(10.0 ** rng.uniform(-5.0, -2.0))
        argv = ["separate", "--catalog", str(self.path), f"--t={t!r}", f"--kappa={KAPPA!r}",
                f"--pi-hbark={WIDTH_HBARK!r}", "--c0sq=1.0"]
        check = functools.partial(self.check, names=names, masses=masses,
                                  wavelengths=wavelengths, t=t)
        return Op([argv], N_SPECIES * (N_SPECIES - 1) // 2, check)

    def check(self, results, *, names, masses, wavelengths, t):
        code, document = results[0]
        if code != 0:
            return f"exit code {code}"
        rows = _csv(document, self.header)
        if isinstance(rows, str):
            return rows
        ref = reference.separation(np.array(masses), np.array(wavelengths), t, KAPPA,
                                   WIDTH_HBARK)
        if len(rows) != len(ref["i"]) or any(len(row) != 8 for row in rows):
            return f"{len(rows)} rows, expected {len(ref['i'])} rows of 8 fields"
        cols = list(zip(*rows))
        if (list(cols[0]) != [names[i] for i in ref["i"]]
                or list(cols[1]) != [names[j] for j in ref["j"]]):
            return "pair names or order differ from the reference"
        if list(cols[6]) != ["true" if r else "false" for r in ref["resolvable"]]:
            return "resolvable differs from the reference"
        if [c == "" for c in cols[7]] != list(np.isnan(ref["t_required"])):
            return "which pairs never resolve differs from the reference"
        for column, key in ((2, "speed_gap"), (3, "gap"), (4, "width_a"), (5, "width_b"),
                            (7, "t_required")):
            out = np.array([float(c) if c else np.nan for c in cols[column]])
            known = ~np.isnan(ref[key])
            if not np.all(_within(out[known], ref[key][known],
                                  SEPARATION_RTOL * np.abs(ref[key][known]))):
                return f"{key} differs from the reference by more than {SEPARATION_RTOL:g}"
        return None


class Acceptance:
    """The full acceptance suite. Its inputs are fixed: the seed has no effect."""

    name = "acceptance"
    work_unit = "checks"
    probe = "matrix"
    expected_red = "table1-speeds"  # the Eu-153 reference row contradicts its own data

    def __init__(self, package, run_dir: Path) -> None:
        pass

    def warm_argv(self) -> list[str]:
        return ["validate", "--only", "figure3-gaps"]

    def make_op(self, rng: np.random.Generator, traced: bool) -> Op:
        # The traced run times the checks one at a time.
        calls = ([["validate", "--only", name] for name in CHECK_NAMES] if traced
                 else [["validate"]])
        return Op(calls, len(CHECK_NAMES), self.check)

    def check(self, results):
        verdicts = {}
        for code, document in results:
            lines = document.splitlines()
            summary = re.fullmatch(r"passed (\d+)/(\d+) checks", lines[-1]) if lines else None
            if summary is None:
                return f"no summary line (exit code {code})"
            found = [re.fullmatch(r"(PASS|FAIL) ([\w-]+): (.*)", line) for line in lines[:-1]]
            if not all(found):
                return "a check line is malformed"
            passed = sum(m.group(1) == "PASS" for m in found)
            if (int(summary.group(1)), int(summary.group(2))) != (passed, len(found)):
                return f"summary {lines[-1]!r} does not count the check lines"
            if code != (0 if passed == len(found) else 1):
                return f"exit code {code} for {passed}/{len(found)} passed"
            verdicts.update((m.group(2), (m.group(1), m.group(3))) for m in found)
        if sorted(verdicts) != sorted(CHECK_NAMES):
            return f"checks {sorted(verdicts)}, expected {sorted(CHECK_NAMES)}"
        for name, (status, detail) in verdicts.items():
            if name != self.expected_red and status != "PASS":
                return f"{name} failed: {detail}"
        status, detail = verdicts[self.expected_red]
        named = set(re.findall(r"([A-Z][a-z]?-\d+) off by", detail))
        if status != "FAIL" or named != {"Eu-153"}:
            return f"{self.expected_red} should fail naming only Eu-153: {status} {detail}"
        return None


WORKLOADS = {cls.name: cls for cls in (Trajectory, Separation, Acceptance)}
