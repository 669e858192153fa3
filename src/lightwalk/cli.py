"""Command-line interface: plot-ready CSV emitters and the validate runner.

Subcommands: ``speeds``, ``simulate``, ``bands``, ``separate``, ``validate``.
Numbers are serialized with 9 significant digits; identical flags yield
byte-identical output. Exit codes: 0 ok, 1 validation failure, 2 usage,
3 file problems, 4 physical-domain errors (a non-finite result among them, and
a run whose arrays do not fit in memory).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

import numpy as np

from . import validation
from .catalog import Catalog, embedded_table1, load_catalog
from .constants import CONSTANT_SETS, HBAR, mass_to_si, wavenumber
from .dynamics import (
    LightField,
    MomentumGrid,
    WavepacketSpec,
    bare_frequencies,
    dressed_frequencies,
    simulate,
)
from .errors import MAX_ARRAY_LEN, CatalogError, DomainError, check_fraction
from .planner import separation_report, speed_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_DOMAIN = 4

_MAX_AUTO_STEPS = 100_000
_CSV_BLOCK_ROWS = 256


class UsageError(Exception):
    pass


_NUMBER = "%.9g"  # 9 significant digits, the one number format of every CSV


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lightwalk",
        description="Coherent-walking simulator and optical purification planner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default="-", metavar="PATH",
                       help="output file, '-' for stdout (default)")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--constants", choices=sorted(CONSTANT_SETS), default="paper",
                       help="constant set (default: paper)")
        p.add_argument("--catalog", default=None, metavar="PATH",
                       help="species catalog file (default: embedded dataset)")
        add_output(p)

    def add_species_field(p: argparse.ArgumentParser) -> None:  # the flags _species_field reads
        add_common(p)
        p.add_argument("--species", required=True, help="catalog entry name, e.g. Mg-24")
        p.add_argument("--omega", type=float, default=1.0e6, help="coupling rad/s (default 1e6)")
        p.add_argument("--delta", type=float, default=0.0, help="detuning rad/s (default 0)")
        p.add_argument("--direction", type=int, choices=(1, -1), default=1,
                       help="light propagation along +x (1, default) or -x (-1)")

    p = sub.add_parser("speeds", help="per-species drift speed table (CSV)")
    add_common(p)

    p = sub.add_parser("simulate", help="wavepacket trajectory of one species (CSV)")
    add_species_field(p)
    p.add_argument("--pi-hbark", type=float, default=0.05,
                   help="packet momentum width in units of hbar*k (default 0.05)")
    p.add_argument("--pc-hbark", type=float, default=0.0,
                   help="packet center momentum in units of hbar*k (default 0)")
    p.add_argument("--c0sq", type=float, default=1.0,
                   help="ground-state population (default 1)")
    p.add_argument("--x0", type=float, default=0.0, help="initial mean position m")
    p.add_argument("--t-max", type=float, required=True, help="final time s")
    p.add_argument("--steps", type=int, default=None,
                   help=f"time samples after t=0 (default: 200 per Rabi period, clipped to 2 to "
                        f"{_MAX_AUTO_STEPS}; 200 at --omega 0)")
    p.add_argument("--grid-points", type=int, default=4096)
    p.add_argument("--grid-span", type=float, default=6.0,
                   help="grid half-width in packet widths (default 6)")

    p = sub.add_parser("bands", help="dressed vs bare frequency branches (CSV)")
    add_species_field(p)
    p.add_argument("--p-min-hbark", type=float, default=-4.0)
    p.add_argument("--p-max-hbark", type=float, default=4.0)
    p.add_argument("--points", type=int, default=501)

    p = sub.add_parser("separate", help="pairwise separation report (CSV)")
    add_common(p)
    p.add_argument("--pair", default=None, metavar="NAMES",
                   help="comma-separated species names (default: whole catalog)")
    p.add_argument("--t", type=float, required=True, help="interaction time s")
    p.add_argument("--kappa", type=float, default=2.0,
                   help="resolvability threshold in summed widths (default 2)")
    p.add_argument("--pi-hbark", type=float, default=0.05,
                   help="packet momentum width in units of the mean hbar*k (default 0.05)")
    p.add_argument("--c0sq", type=float, default=1.0)

    p = sub.add_parser("validate", help="run the acceptance suite")
    add_output(p)
    p.add_argument("--only", action="append", default=None, metavar="NAME",
                   choices=validation.ALL_CHECKS,
                   help="run only the named check (repeatable): %(choices)s")
    return parser


def _load(args: argparse.Namespace) -> tuple[Catalog, float]:
    amu = CONSTANT_SETS[args.constants]
    catalog = embedded_table1() if args.catalog is None else load_catalog(args.catalog)
    return catalog, amu


def _species(catalog: Catalog, name: str):
    try:
        return catalog.get(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


def _table(header: str, *columns) -> str:
    """CSV at one ``%`` call per row: a str-dtype column as it is, any other as numbers.

    A non-finite number is a domain error, never printed; the message names
    the first one in row order.
    """
    columns = [np.asarray(column) for column in columns]
    columns = [c if c.dtype.kind in "US" else np.asarray(c, dtype=float) for c in columns]
    numbers = [c for c in columns if c.dtype.kind == "f"]
    if not all(np.isfinite(column).all() for column in numbers):
        table = np.column_stack(numbers)
        value = table[~np.isfinite(table)][0]
        raise DomainError(f"a result is not finite ({value}): an input is out of float range")
    row_format = ",".join(_NUMBER if c.dtype.kind == "f" else "%s" for c in columns)
    lines = [header]
    # tolist makes Python floats, which % formats fastest; a block of rows at a
    # time keeps them from doubling the memory of a long table
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = zip(*(column[lo:lo + _CSV_BLOCK_ROWS].tolist() for column in columns))
        lines += [row_format % row for row in block]
    return "\n".join(lines) + "\n"


def _cmd_speeds(args: argparse.Namespace) -> str:
    catalog, amu = _load(args)
    return _table(
        "name,mass_u,wavelength_nm,vbar_mps",
        catalog.names(),
        [sp.mass_u for sp in catalog],
        [sp.wavelength_nm for sp in catalog],
        list(speed_table(catalog, amu).values()),
    )


def _species_field(args: argparse.Namespace) -> tuple[float, LightField, float]:
    """The mass in kg of ``--species``, the light field its transition sees, and |hbar k|."""
    catalog, amu = _load(args)
    species = _species(catalog, args.species)
    mass_kg = mass_to_si(species.mass_u, amu)
    field = LightField(
        species.wavelength_nm * 1e-9, rabi=args.omega, detuning=args.delta,
        direction=args.direction,
    )
    return mass_kg, field, abs(field.recoil_momentum)


def _cmd_simulate(args: argparse.Namespace) -> str:
    mass_kg, field, recoil = _species_field(args)
    check_fraction(args.c0sq)
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        raise DomainError(f"t-max must be finite and positive, got {args.t_max}")
    spec = WavepacketSpec(
        center_momentum=args.pc_hbark * recoil,
        momentum_width=args.pi_hbark * recoil,
        ground_amp=math.sqrt(args.c0sq),
        excited_amp=math.sqrt(1.0 - args.c0sq),
        initial_position=args.x0,
    )
    grid = MomentumGrid.for_packet(spec, half_span=args.grid_span, n_points=args.grid_points)
    if args.steps is not None:
        steps = args.steps
    elif args.omega > 0:
        steps = max(2, math.ceil(min(_MAX_AUTO_STEPS, 200.0 * args.t_max / field.period)))
    else:
        steps = 200
    if not 2 <= steps < MAX_ARRAY_LEN:
        raise DomainError(f"simulate needs 2 to {MAX_ARRAY_LEN - 1} time steps, got {steps}")
    times = np.linspace(0.0, args.t_max, steps + 1)
    trajectory = simulate(spec, grid, field, mass_kg, times)
    return _table(
        "t_s,mean_p_kgmps,mean_v_mps,mean_x_m,norm,pop_excited",
        trajectory.times,
        trajectory.mean_momentum,
        trajectory.mean_velocity,
        trajectory.mean_position,
        trajectory.norm,
        trajectory.excited_population,
    )


def _cmd_bands(args: argparse.Namespace) -> str:
    mass_kg, field, recoil = _species_field(args)
    p = MomentumGrid(args.p_min_hbark * recoil, args.p_max_hbark * recoil, args.points).points()
    return _table(
        "p_kgmps,w_low_radps,w_high_radps,bare_ground_radps,bare_excited_radps",
        p,
        *dressed_frequencies(p, field, mass_kg),
        *bare_frequencies(p, field, mass_kg),
    )


def _cmd_separate(args: argparse.Namespace) -> str:
    catalog, amu = _load(args)
    if args.pair is None:
        names = list(catalog.names())
    else:
        names = [n.strip() for n in args.pair.split(",") if n.strip()]
    if len(names) < 2:
        raise UsageError("separate needs at least two species names")
    if len(set(names)) < len(names):
        raise UsageError(f"species names repeat in --pair {args.pair!r}")
    species = [_species(catalog, n) for n in names]
    mean_k = sum(wavenumber(sp.wavelength_nm * 1e-9) for sp in species) / len(species)
    momentum_width = args.pi_hbark * HBAR * mean_k
    report = separation_report(species, args.t, args.kappa, momentum_width, amu,
                               ground_fraction=args.c0sq)
    names = np.array(report.names)
    t_required = report.time_required  # NaN, printed empty, where the pair never resolves
    return _table(
        "name_a,name_b,dvbar_mps,gap_m,width_a_m,width_b_m,resolvable,t_required_s",
        names[report.pairs[:, 0]],
        names[report.pairs[:, 1]],
        report.speed_gap,
        report.gap,
        report.width_a,
        report.width_b,
        np.where(report.resolvable, "true", "false"),
        np.where(np.isnan(t_required), "", np.char.mod(_NUMBER, t_required)),
    )


def _cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    results = validation.run_checks(args.only)
    lines = [validation.format_line(r) for r in results]
    n_passed = sum(r.passed for r in results)
    lines.append(f"passed {n_passed}/{len(results)} checks")
    code = EXIT_OK if n_passed == len(results) else EXIT_VALIDATION
    return "\n".join(lines) + "\n", code


_CSV_COMMANDS = {
    "speeds": _cmd_speeds,
    "simulate": _cmd_simulate,
    "bands": _cmd_bands,
    "separate": _cmd_separate,
}


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Execute a command line; returns (exit code, emitted document)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else EXIT_USAGE), ""
    try:
        if args.command == "validate":
            document, code = _cmd_validate(args)
        else:
            # _table refuses every non-finite result, so the float warnings on the
            # way there carry nothing and must not turn into errors
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                document, code = _CSV_COMMANDS[args.command](args), EXIT_OK
    except UsageError as exc:
        print(f"lightwalk: {exc}", file=sys.stderr)
        return EXIT_USAGE, ""
    except (CatalogError, OSError) as exc:
        print(f"lightwalk: {exc}", file=sys.stderr)
        return EXIT_FILE, ""
    except (DomainError, MemoryError) as exc:
        print(f"lightwalk: {exc}", file=sys.stderr)
        return EXIT_DOMAIN, ""

    if args.output == "-":
        return code, document
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(document)
    except OSError as exc:
        print(f"lightwalk: {exc}", file=sys.stderr)
        return EXIT_FILE, ""
    return code, ""


def main(argv: Sequence[str] | None = None) -> int:
    code, document = run(sys.argv[1:] if argv is None else argv)
    if document:
        sys.stdout.write(document)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
