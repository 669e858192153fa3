"""Command-line interface: plot-ready CSV emitters and the validate runner.

Subcommands: ``speeds``, ``simulate``, ``bands``, ``separate``, ``validate``.
Numbers are serialized with 9 significant digits; identical flags yield
byte-identical output. Exit codes: 0 ok, 1 validation failure, 2 usage,
3 file problems, 4 physical-domain errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import validation
from .catalog import Catalog, embedded_table1, load_catalog
from .constants import CONSTANT_SETS, HBAR, PhysicalConstants, mass_to_si, wavenumber
from .dynamics import (
    LightField,
    MomentumGrid,
    WavepacketSpec,
    band_structure,
    simulate,
)
from .errors import CatalogError, DomainError
from .planner import MixtureMember, separation_report, speed_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_DOMAIN = 4

_MAX_AUTO_STEPS = 100_000


class UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightwalk",
        description="Coherent-walking simulator and optical purification planner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--constants", choices=sorted(CONSTANT_SETS), default="paper",
                       help="constant set (default: paper)")
        p.add_argument("--catalog", default=None, metavar="PATH",
                       help="species catalog file (default: embedded dataset)")
        p.add_argument("--output", default="-", metavar="PATH",
                       help="output file, '-' for stdout (default)")

    p = sub.add_parser("speeds", help="per-species drift speed table (CSV)")
    add_common(p)

    p = sub.add_parser("simulate", help="wavepacket trajectory of one species (CSV)")
    add_common(p)
    p.add_argument("--species", required=True, help="catalog entry name, e.g. Mg-24")
    p.add_argument("--omega", type=float, default=1.0e6, help="coupling rad/s (default 1e6)")
    p.add_argument("--delta", type=float, default=0.0, help="detuning rad/s (default 0)")
    p.add_argument("--pi-hbark", type=float, default=0.05,
                   help="packet momentum width in units of hbar*k (default 0.05)")
    p.add_argument("--pc-hbark", type=float, default=0.0,
                   help="packet center momentum in units of hbar*k (default 0)")
    p.add_argument("--c0sq", type=float, default=1.0,
                   help="ground-state population (default 1)")
    p.add_argument("--x0", type=float, default=0.0, help="initial mean position m")
    p.add_argument("--t-max", type=float, required=True, help="final time s")
    p.add_argument("--steps", type=int, default=None,
                   help="time samples after t=0 (default: 200 per Rabi period)")
    p.add_argument("--grid-points", type=int, default=4096)
    p.add_argument("--grid-span", type=float, default=6.0,
                   help="grid half-width in packet widths (default 6)")
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)

    p = sub.add_parser("bands", help="dressed vs bare frequency branches (CSV)")
    add_common(p)
    p.add_argument("--species", required=True)
    p.add_argument("--omega", type=float, default=1.0e6)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--p-min-hbark", type=float, default=-4.0)
    p.add_argument("--p-max-hbark", type=float, default=4.0)
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)

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
    add_common(p)
    p.add_argument("--only", action="append", default=None, metavar="NAME",
                   help="run only the named check (repeatable); names: "
                        + ", ".join(name for name, _ in validation.ALL_CHECKS))
    return parser


def _load(args: argparse.Namespace) -> tuple[Catalog, PhysicalConstants]:
    consts = CONSTANT_SETS[args.constants]
    catalog = embedded_table1() if args.catalog is None else load_catalog(args.catalog)
    return catalog, consts


def _species(catalog: Catalog, name: str):
    try:
        return catalog.get(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _cmd_speeds(args: argparse.Namespace) -> str:
    catalog, consts = _load(args)
    rows = [
        f"{e.name},{_fmt(e.mass_u)},{_fmt(e.wavelength_nm)},{_fmt(e.speed)}"
        for e in speed_table(catalog, consts)
    ]
    return _csv("name,mass_u,wavelength_nm,vbar_mps", rows)


def _cmd_simulate(args: argparse.Namespace) -> str:
    catalog, consts = _load(args)
    species = _species(catalog, args.species)
    mass_kg = mass_to_si(species.mass_u, consts)
    field = LightField.from_wavelength(
        species.wavelength_nm * 1e-9, rabi=args.omega, detuning=args.delta,
        direction=args.direction,
    )
    recoil = abs(field.recoil_momentum)
    if not 0.0 <= args.c0sq <= 1.0:
        raise DomainError(f"c0sq must lie in [0, 1], got {args.c0sq}")
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
    if steps < 2:
        raise UsageError("need at least 2 time steps")
    times = np.linspace(0.0, args.t_max, steps + 1)
    trajectory = simulate(spec, grid, field, mass_kg, times)
    rows = [
        ",".join(
            _fmt(v)
            for v in (
                trajectory.times[i],
                trajectory.mean_momentum[i],
                trajectory.mean_velocity[i],
                trajectory.mean_position[i],
                trajectory.norm[i],
                trajectory.excited_population[i],
            )
        )
        for i in range(len(trajectory.times))
    ]
    return _csv("t_s,mean_p_kgmps,mean_v_mps,mean_x_m,norm,pop_excited", rows)


def _cmd_bands(args: argparse.Namespace) -> str:
    catalog, consts = _load(args)
    species = _species(catalog, args.species)
    mass_kg = mass_to_si(species.mass_u, consts)
    field = LightField.from_wavelength(
        species.wavelength_nm * 1e-9, rabi=args.omega, detuning=args.delta,
        direction=args.direction,
    )
    recoil = abs(field.recoil_momentum)
    grid = MomentumGrid(args.p_min_hbark * recoil, args.p_max_hbark * recoil, args.points)
    bands = band_structure(grid, field, mass_kg)
    rows = [
        ",".join(
            _fmt(v)
            for v in (
                bands.p[i],
                bands.dressed_low[i],
                bands.dressed_high[i],
                bands.bare_ground[i],
                bands.bare_excited[i],
            )
        )
        for i in range(len(bands.p))
    ]
    return _csv("p_kgmps,w_low_radps,w_high_radps,bare_ground_radps,bare_excited_radps", rows)


def _cmd_separate(args: argparse.Namespace) -> str:
    catalog, consts = _load(args)
    if args.pair is None:
        names = list(catalog.names())
    else:
        names = [n.strip() for n in args.pair.split(",") if n.strip()]
    if len(names) < 2:
        raise UsageError("separate needs at least two species names")
    if len(set(names)) < len(names):
        raise UsageError(f"species names repeat in --pair {args.pair!r}")
    if not 0.0 <= args.c0sq <= 1.0:
        raise DomainError(f"c0sq must lie in [0, 1], got {args.c0sq}")
    if not math.isfinite(args.t):
        raise DomainError(f"t must be finite, got {args.t}")
    members = [
        MixtureMember(_species(catalog, n), args.c0sq, 1.0 - args.c0sq) for n in names
    ]
    mean_k = sum(wavenumber(m.species.wavelength_nm * 1e-9) for m in members) / len(members)
    momentum_width = args.pi_hbark * HBAR * mean_k
    report = separation_report(members, args.t, args.kappa, momentum_width, consts)
    rows = []
    for pair in report.pairs:
        t_req = "" if pair.time_required is None else _fmt(pair.time_required)
        rows.append(
            f"{pair.name_a},{pair.name_b},{_fmt(pair.speed_gap)},{_fmt(pair.gap)},"
            f"{_fmt(pair.width_a)},{_fmt(pair.width_b)},"
            f"{'true' if pair.resolvable else 'false'},{t_req}"
        )
    return _csv(
        "name_a,name_b,dvbar_mps,gap_m,width_a_m,width_b_m,resolvable,t_required_s", rows
    )


def _cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    try:
        results = validation.run_checks(args.only)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    lines = [validation.format_line(r) for r in results]
    n_passed = sum(r.passed for r in results)
    lines.append(f"passed {n_passed}/{len(results)} checks")
    code = EXIT_OK if n_passed == len(results) else EXIT_VALIDATION
    return "\n".join(lines) + "\n", code


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Execute a command line; returns (exit code, emitted document)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else EXIT_USAGE), ""
    try:
        if args.command == "speeds":
            document, code = _cmd_speeds(args), EXIT_OK
        elif args.command == "simulate":
            document, code = _cmd_simulate(args), EXIT_OK
        elif args.command == "bands":
            document, code = _cmd_bands(args), EXIT_OK
        elif args.command == "separate":
            document, code = _cmd_separate(args), EXIT_OK
        else:
            document, code = _cmd_validate(args)
    except UsageError as exc:
        print(f"lightwalk: {exc}", file=sys.stderr)
        return EXIT_USAGE, ""
    except (CatalogError, OSError) as exc:
        print(f"lightwalk: {exc}", file=sys.stderr)
        return EXIT_FILE, ""
    except DomainError as exc:
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
